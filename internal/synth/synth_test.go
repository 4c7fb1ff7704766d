package synth

import (
	"io"
	"math"
	"testing"
	"testing/quick"

	"mlcache/internal/trace"
)

func TestStackConfigValidate(t *testing.T) {
	good := StackConfig{Lines: 100, Alpha: 1.0, XM: 1.0}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []StackConfig{
		{Lines: 0, Alpha: 1, XM: 1},
		{Lines: 10, Alpha: 0, XM: 1},
		{Lines: 10, Alpha: 1, XM: 0},
		{Lines: 10, Alpha: math.NaN(), XM: 1},
		{Lines: 10, Alpha: 1, XM: math.NaN()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := NewStack(cfg, newRNG(1)); err == nil {
			t.Errorf("case %d: NewStack accepted", i)
		}
	}
}

func TestStackPrepopulated(t *testing.T) {
	s := MustNewStack(StackConfig{Lines: 64, Alpha: 1, XM: 1}, newRNG(1))
	if s.Lines() != 64 {
		t.Errorf("Lines = %d, want 64", s.Lines())
	}
	// Every id in [0,64) appears exactly once, once every position holds
	// its id.
	s.settle(0)
	seen := map[uint32]bool{}
	for _, id := range s.stack {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != 64 {
		t.Errorf("%d distinct ids, want 64", len(seen))
	}
}

// TestStackDepthDistribution verifies the Pareto tail: the fraction of
// references with stack depth > n must approximate (n/xm)^-alpha.
func TestStackDepthDistribution(t *testing.T) {
	cfg := StackConfig{Lines: 4096, Alpha: 1.0, XM: 1.0}
	rng := newRNG(42)
	s := MustNewStack(cfg, rng)
	// Track depth of each reference with a shadow LRU list of capacities.
	const refs = 200000
	counts := map[int]int{} // threshold -> refs deeper than threshold
	thresholds := []int{8, 32, 128, 512}
	shadow := newShadowLRU()
	for i := 0; i < refs; i++ {
		id := s.Next()
		d := shadow.access(id)
		for _, th := range thresholds {
			if d > th || d == 0 {
				counts[th]++
			}
		}
	}
	for _, th := range thresholds {
		got := float64(counts[th]) / refs
		want := cfg.TailProb(th)
		if got < want*0.8 || got > want*1.2+0.01 {
			t.Errorf("P(depth > %d) = %.4f, want ≈ %.4f", th, got, want)
		}
	}
}

// shadowLRU measures true LRU stack distances (0 = never seen).
type shadowLRU struct {
	order []uint32
}

func newShadowLRU() *shadowLRU { return &shadowLRU{} }

func (l *shadowLRU) access(id uint32) int {
	for i := len(l.order) - 1; i >= 0; i-- {
		if l.order[i] == id {
			d := len(l.order) - i
			copy(l.order[i:], l.order[i+1:])
			l.order[len(l.order)-1] = id
			return d
		}
	}
	l.order = append(l.order, id)
	return 0
}

func TestTailProb(t *testing.T) {
	cfg := StackConfig{Lines: 1000, Alpha: 1.0, XM: 2.0}
	if got := cfg.TailProb(0); got != 1 {
		t.Errorf("TailProb(0) = %v, want 1", got)
	}
	if got := cfg.TailProb(1); got != 1 {
		t.Errorf("TailProb(1) = %v, want clamped to 1", got)
	}
	if got := cfg.TailProb(1000); got != 0 {
		t.Errorf("TailProb(footprint) = %v, want 0", got)
	}
	if got := cfg.TailProb(200); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("TailProb(200) = %v, want 0.01", got)
	}
}

func TestProcessConfigValidate(t *testing.T) {
	good := PaperMix(1).Processes[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("paper process rejected: %v", err)
	}
	cases := []func(*ProcessConfig){
		func(c *ProcessConfig) { c.Code.Lines = 0 },
		func(c *ProcessConfig) { c.Data.Alpha = 0 },
		func(c *ProcessConfig) { c.DataRefProb = 1.5 },
		func(c *ProcessConfig) { c.DataRefProb = -0.1 },
		func(c *ProcessConfig) { c.LoadFrac = 2 },
		func(c *ProcessConfig) { c.MeanIRunWords = 0.5 },
		func(c *ProcessConfig) { c.MeanDRunWords = 0 },
	}
	for i, mutate := range cases {
		cfg := PaperMix(1).Processes[0]
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := NewProcess(cfg); err == nil {
			t.Errorf("case %d: NewProcess accepted", i)
		}
	}
}

// TestProcessStreamShape checks the reference-mix statistics against the
// paper's CPU model: one ifetch per cycle, ~50% of cycles carry a data
// reference, ~35% of data references are loads.
func TestProcessStreamShape(t *testing.T) {
	p := MustNewProcess(PaperMix(7).Processes[0])
	var c trace.Counts
	const n = 200000
	for i := 0; i < n; i++ {
		r, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		c.Add(r.Kind)
	}
	dataRefs := c.Load + c.Store
	dataPerCycle := float64(dataRefs) / float64(c.IFetch)
	if dataPerCycle < 0.45 || dataPerCycle > 0.55 {
		t.Errorf("data refs per cycle = %.3f, want ≈ 0.5", dataPerCycle)
	}
	loadFrac := float64(c.Load) / float64(dataRefs)
	if loadFrac < 0.30 || loadFrac > 0.40 {
		t.Errorf("load fraction = %.3f, want ≈ 0.35", loadFrac)
	}
}

// TestProcessBundleOrder: a data reference always directly follows an
// instruction fetch (they share a CPU cycle).
func TestProcessBundleOrder(t *testing.T) {
	p := MustNewProcess(PaperMix(3).Processes[0])
	prevWasIFetch := false
	for i := 0; i < 10000; i++ {
		r, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != trace.IFetch && !prevWasIFetch {
			t.Fatalf("ref %d: data reference not preceded by ifetch", i)
		}
		prevWasIFetch = r.Kind == trace.IFetch
	}
}

func TestProcessDeterminism(t *testing.T) {
	collect := func() trace.Trace {
		p := MustNewProcess(PaperMix(5).Processes[2])
		tr, _ := trace.Collect(trace.Limit(p, 5000), 0)
		return tr
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs between identical generators", i)
		}
	}
}

func TestProcessAddressSpaces(t *testing.T) {
	cfg := PaperMix(1)
	for i, pc := range cfg.Processes {
		p := MustNewProcess(pc)
		for j := 0; j < 5000; j++ {
			r, _ := p.Next()
			if r.PID != pc.PID {
				t.Fatalf("process %d emitted pid %d", i, r.PID)
			}
			// Generous bound: within the process's slot (plus run
			// spill-over well below the next slot).
			if r.Addr < pc.Base || r.Addr >= pc.Base+2*DataRegionOffset {
				t.Fatalf("process %d emitted address %#x outside its space", i, r.Addr)
			}
		}
	}
}

func TestMixConfigValidate(t *testing.T) {
	good := PaperMix(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("paper mix rejected: %v", err)
	}
	bad := good
	bad.Processes = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty mix accepted")
	}
	bad = good
	bad.MeanSwitchCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero switch interval accepted")
	}
	bad = good
	bad.Processes = append([]ProcessConfig{}, good.Processes...)
	bad.Processes[0].LoadFrac = 9
	if err := bad.Validate(); err == nil {
		t.Error("bad process accepted")
	}
	if _, err := NewMix(bad); err == nil {
		t.Error("NewMix accepted bad process")
	}
}

// TestMixInterleavesAllProcesses: over a long window every process
// contributes, and switches respect cycle boundaries.
func TestMixInterleavesAllProcesses(t *testing.T) {
	m := MustNewMix(PaperMix(11))
	perPID := map[uint16]int{}
	prev := trace.Ref{Kind: trace.IFetch}
	for i := 0; i < 300000; i++ {
		r, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		perPID[r.PID]++
		if r.Kind != trace.IFetch && r.PID != prev.PID {
			t.Fatalf("ref %d: context switch split an ifetch+data bundle", i)
		}
		prev = r
	}
	if len(perPID) != 4 {
		t.Fatalf("saw %d processes, want 4: %v", len(perPID), perPID)
	}
	for pid, n := range perPID {
		if n < 300000/20 {
			t.Errorf("process %d starved: %d refs", pid, n)
		}
	}
}

func TestPaperStreamBounded(t *testing.T) {
	s := PaperStream(1, 1000)
	n := 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 1000 {
		t.Errorf("PaperStream yielded %d refs, want 1000", n)
	}
}

// Property: stack Next always returns an id inside the footprint, and the
// stack remains a permutation.
func TestQuickStackPermutation(t *testing.T) {
	f := func(seed int64, lines uint16) bool {
		n := int(lines%500) + 2
		s := MustNewStack(StackConfig{Lines: n, Alpha: 0.8, XM: 1}, newRNG(seed))
		for i := 0; i < 2000; i++ {
			if id := s.Next(); int(id) >= n {
				return false
			}
		}
		s.settle(0)
		seen := map[uint32]bool{}
		for _, id := range s.stack {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMixSwitchInterval: the switch interval is counted in cycles, so with
// DataRefProb 0.5 an interval spans about 1.5× as many references. Two
// processes make every switch a change of PID at an instruction fetch.
func TestMixSwitchInterval(t *testing.T) {
	const n, mean = 400_000, 50
	for seed := int64(1); seed <= 3; seed++ {
		mix := PaperMix(seed)
		mix.Processes = mix.Processes[:2]
		mix.MeanSwitchCycles = mean
		refs := make([]trace.Ref, n)
		MustNewMix(mix).Fill(refs)
		cycles, switches := 0, 0
		for i, r := range refs {
			if r.Kind != trace.IFetch {
				continue
			}
			cycles++
			if i > 0 && r.PID != refs[i-1].PID {
				switches++
			}
		}
		perSwitch := float64(cycles) / float64(switches)
		if math.Abs(perSwitch-mean) > 0.05*mean {
			t.Errorf("seed %d: %.1f cycles per switch, want %d ± 5%%", seed, perSwitch, mean)
		}
		refsPerSwitch := float64(n) / float64(switches)
		if want := 1.5 * mean; math.Abs(refsPerSwitch-want) > 0.05*want {
			t.Errorf("seed %d: %.1f references per switch, want %.0f ± 5%%", seed, refsPerSwitch, want)
		}
	}
}
