// Package analytic implements the paper's execution-time equation over
// global miss ratios (Equation 1, §4), the power-law miss model fitted to a
// measured miss curve, and the two predictions that the derived claims
// compare with measurement: the shift of the lines of constant performance
// per L1 doubling (§4) and the growth of downstream break-even times per L1
// doubling (§5).
//
// Times in this package are expressed in whatever unit the caller uses
// consistently (the experiments use CPU cycles or nanoseconds); the
// equations are homogeneous in the time unit.
package analytic

import (
	"fmt"
	"math"
)

// MissModel is the paper's empirical miss-rate law: a doubling of cache
// size decreases the (solo ≈ global) miss ratio by a constant factor, i.e.
//
//	M(size) = M0 · (size/S0)^-Alpha
//
// The paper measures the factor 2^-Alpha ≈ 0.69 (Alpha ≈ 0.54) for its
// traces.
type MissModel struct {
	M0    float64 // miss ratio at the reference size
	S0    float64 // reference size (any unit, used consistently)
	Alpha float64 // power-law exponent
}

// FitMissModel fits a power law through measured (size, ratio) points by
// least squares in log-log space. Points with non-positive ratios are
// rejected. The returned model has S0 = sizes[0].
func FitMissModel(sizes, ratios []float64) (MissModel, error) {
	if len(sizes) != len(ratios) {
		return MissModel{}, fmt.Errorf("analytic: %d sizes but %d ratios", len(sizes), len(ratios))
	}
	if len(sizes) < 2 {
		return MissModel{}, fmt.Errorf("analytic: need at least 2 points, got %d", len(sizes))
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(sizes))
	for i := range sizes {
		if sizes[i] <= 0 || ratios[i] <= 0 {
			return MissModel{}, fmt.Errorf("analytic: point %d (%v, %v) not positive", i, sizes[i], ratios[i])
		}
		x, y := math.Log(sizes[i]), math.Log(ratios[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return MissModel{}, fmt.Errorf("analytic: degenerate fit (all sizes equal)")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	alpha := -slope
	if alpha <= 0 {
		return MissModel{}, fmt.Errorf("analytic: fitted alpha %v not positive (miss ratios not decreasing)", alpha)
	}
	s0 := sizes[0]
	m0 := math.Exp(intercept + slope*math.Log(s0))
	return MissModel{M0: m0, S0: s0, Alpha: alpha}, nil
}

// ExecParams carries the quantities of the paper's Equation 1 for a
// two-level hierarchy with negligible write effects:
//
//	N_total = N_read·(n_L1 + M_L1·n_L2 + M_L2·n_MMread) + N_store·t_L1write
//
// All times share one unit; M_L1 and M_L2 are *global* read miss ratios.
type ExecParams struct {
	Reads    float64 // N_read: loads + instruction fetches
	Stores   float64 // N_store
	NL1      float64 // n_L1: time per first-level read
	NL2      float64 // n_L2: time per second-level read (the L2 cycle)
	NMM      float64 // n_MMread: time per main-memory block read
	TL1Write float64 // t̄_L1write: mean time per store
	ML1      float64 // M_L1: first-level global read miss ratio
	ML2      float64 // M_L2: second-level global read miss ratio
}

// Total evaluates Equation 1.
func (p ExecParams) Total() float64 {
	return p.Reads*(p.NL1+p.ML1*p.NL2+p.ML2*p.NMM) + p.Stores*p.TL1Write
}

// PredictedShiftPerL1Doubling returns the model's predicted rightward shift
// of the lines of constant performance (as a size factor) per doubling of
// the L1 cache. Setting the derivative of Equation 1 to zero with
// M(C) = A·C^-α and a size-independent marginal cycle-time cost gives
// C* ∝ M_L1^(-1/(1+α)); each L1 doubling multiplies M_L1 by missFactor
// (≈0.69), so the shift factor is missFactor^(-1/(1+α)). For α ≈ 0.54 this
// is ≈ 2^0.35 per doubling — the paper's "16-fold L1 increase doubles the
// optimal L2 size" (×2.04 per 8×, §4).
func PredictedShiftPerL1Doubling(alpha, missFactor float64) float64 {
	return math.Pow(missFactor, -1/(1+alpha))
}

// BreakEvenMultiplierPerL1Doubling returns the factor by which downstream
// break-even implementation times grow per L1 doubling: 1/missFactor,
// the paper's 1.45 for a 31% miss reduction per doubling (§5).
func BreakEvenMultiplierPerL1Doubling(missFactor float64) float64 {
	return 1 / missFactor
}
