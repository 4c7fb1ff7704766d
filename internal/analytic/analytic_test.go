package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestMissModelRatio: the power law the fit tests generate their points
// from passes through (S0, M0) and falls by the paper's ≈0.69 per doubling
// at alpha = log2(1/0.69).
func TestMissModelRatio(t *testing.T) {
	m := MissModel{M0: 0.04, S0: 8 * 1024, Alpha: 0.5353}
	if got := m.Ratio(m.S0); !almost(got, m.M0, 1e-12) {
		t.Errorf("Ratio(S0) = %v, want %v", got, m.M0)
	}
	factor := m.Ratio(2*m.S0) / m.Ratio(m.S0)
	if !almost(factor, 0.69, 0.001) {
		t.Errorf("doubling factor = %v, want ≈ 0.69", factor)
	}
}

func TestFitMissModel(t *testing.T) {
	true := MissModel{M0: 0.05, S0: 4096, Alpha: 0.6}
	var sizes, ratios []float64
	for s := 4096.0; s <= 1<<20; s *= 2 {
		sizes = append(sizes, s)
		ratios = append(ratios, true.Ratio(s))
	}
	got, err := FitMissModel(sizes, ratios)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got.Alpha, 0.6, 1e-6) {
		t.Errorf("fitted alpha = %v, want 0.6", got.Alpha)
	}
	if !almost(got.Ratio(65536), true.Ratio(65536), 1e-9) {
		t.Errorf("fitted model mispredicts: %v vs %v", got.Ratio(65536), true.Ratio(65536))
	}
}

func TestFitMissModelErrors(t *testing.T) {
	cases := []struct {
		sizes, ratios []float64
	}{
		{[]float64{1, 2}, []float64{0.1}},       // length mismatch
		{[]float64{1}, []float64{0.1}},          // too few
		{[]float64{1, 2}, []float64{0.1, 0}},    // non-positive ratio
		{[]float64{0, 2}, []float64{0.1, 0.05}}, // non-positive size
		{[]float64{4, 4}, []float64{0.1, 0.1}},  // degenerate
		{[]float64{1, 2}, []float64{0.05, 0.1}}, // increasing (alpha <= 0)
	}
	for i, c := range cases {
		if _, err := FitMissModel(c.sizes, c.ratios); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestExecParamsTotal(t *testing.T) {
	p := ExecParams{
		Reads: 1e6, Stores: 3e5,
		NL1: 1, NL2: 3, NMM: 30, TL1Write: 2,
		ML1: 0.10, ML2: 0.01,
	}
	// 1e6*(1 + 0.3 + 0.3) + 3e5*2 = 1.6e6 + 0.6e6
	if got := p.Total(); !almost(got, 2.2e6, 1) {
		t.Errorf("Total = %v, want 2.2e6", got)
	}
}

func TestPredictedShiftPerL1Doubling(t *testing.T) {
	// Paper §4: with miss factor 0.69 and alpha ≈ 0.54, a 16-fold L1
	// increase doubles the optimal L2 size; 8-fold predicts ×2.04.
	shift := PredictedShiftPerL1Doubling(0.5353, 0.69)
	per8x := math.Pow(shift, 3)
	if !almost(per8x, 2.04, 0.06) {
		t.Errorf("8x L1 shift = %v, want ≈ 2.04", per8x)
	}
	// Per single doubling this is ≈ 2^(1/3), the paper's "third of a
	// binary order of magnitude" shift. (The same section also says a
	// "sixteen fold" L1 increase doubles the optimal size, which is
	// inconsistent with its own 2.04-per-8x figure; we match the latter.)
	if shift < 1.2 || shift > 1.35 {
		t.Errorf("per-doubling shift = %v, want ≈ 1.26", shift)
	}
}

func TestBreakEvenMultiplierPerL1Doubling(t *testing.T) {
	if got := BreakEvenMultiplierPerL1Doubling(0.69); !almost(got, 1.45, 0.01) {
		t.Errorf("multiplier = %v, want ≈ 1.45 (paper §5)", got)
	}
}

// Property: Equation 1 is monotone in every miss ratio and time parameter.
func TestQuickExecParamsMonotone(t *testing.T) {
	f := func(ml1c, ml2c, dnl2 uint8) bool {
		base := ExecParams{
			Reads: 1e6, Stores: 3e5,
			NL1: 1, NL2: 3, NMM: 30, TL1Write: 2,
			ML1: float64(ml1c%100) / 100, ML2: float64(ml2c%100) / 100,
		}
		worse := base
		worse.ML1 = math.Min(1, base.ML1+0.01)
		if worse.Total() < base.Total() {
			return false
		}
		worse = base
		worse.NL2 = base.NL2 + float64(dnl2%10)
		return worse.Total() >= base.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: fitted models reproduce the generating alpha for arbitrary
// exact power-law data.
func TestQuickFitRecoversAlpha(t *testing.T) {
	f := func(a8, m8 uint8) bool {
		alpha := 0.2 + float64(a8%100)/100 // 0.2..1.19
		m0 := 0.01 + float64(m8%50)/100    // 0.01..0.50
		gen := MissModel{M0: m0, S0: 1024, Alpha: alpha}
		var sizes, ratios []float64
		for s := 1024.0; s <= 1<<20; s *= 2 {
			sizes = append(sizes, s)
			ratios = append(ratios, gen.Ratio(s))
		}
		got, err := FitMissModel(sizes, ratios)
		if err != nil {
			return false
		}
		return almost(got.Alpha, alpha, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
