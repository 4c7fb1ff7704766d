package experiments

import (
	"strings"
	"testing"
)

func TestL1SizeSweep(t *testing.T) {
	res, err := NewContext(testOptions()).L1Size()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rel) != 6 || len(res.Rel[0]) != 8 || len(res.OptimalL1) != 8 {
		t.Fatalf("shape %dx%d, %d optima", len(res.Rel), len(res.Rel[0]), len(res.OptimalL1))
	}
	// At fixed L2 cycle time, a bigger L1 is never slower (CPU clock held
	// constant inside Rel).
	for j := range res.CyclesNS {
		for i := 1; i < len(res.L1KBs); i++ {
			if res.Rel[i][j] > res.Rel[i-1][j] {
				t.Errorf("bigger L1 slower at cycle idx %d: %v", j, res.Rel)
			}
		}
	}
	// §6: the optimal L1 under the clock-cost model grows (or stays) as
	// the L2 slows.
	if last := len(res.OptimalL1) - 1; res.OptimalL1[last] < res.OptimalL1[0] {
		t.Errorf("optimal L1 shrank with slower L2: %v", res.OptimalL1)
	}
}

func TestRenderL1Size(t *testing.T) {
	res, err := NewContext(Options{Seed: 1, Refs: 20_000, Warmup: 4_000}).L1Size()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderL1Size(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "optimal L1 per L2 cycle time") {
		t.Errorf("rendering incomplete:\n%s", sb.String())
	}
}
