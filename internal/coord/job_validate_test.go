package coord

import (
	"errors"
	"testing"
)

// boundTestSpec is a comfortably-valid baseline each case mutates; the
// same helper shape as cmd/mlcserve's flag-validation tests.
func boundTestSpec() JobSpec {
	return JobSpec{
		SizesBytes: []int64{8192, 16384},
		CyclesNS:   []int64{20, 30},
		Assoc:      2,
		L1KB:       4,
		Refs:       30000,
		Seed:       7,
	}
}

func repeatInt64(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestValidateBounds: JobSpec crosses trust boundaries, so absurd specs —
// the kind that would OOM or wedge the process at materialization time —
// are rejected at admission with a distinct sentinel per bound, and so are
// machines memsys cannot build, which would fail every point.
func TestValidateBounds(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*JobSpec)
		wantErr error
	}{
		{"too many sizes", func(s *JobSpec) { s.SizesBytes = repeatInt64(8192, MaxGridDim+1) }, ErrGridTooLarge},
		{"too many cycles", func(s *JobSpec) { s.CyclesNS = repeatInt64(20, MaxGridDim+1) }, ErrGridTooLarge},
		{
			"degenerate grid product",
			func(s *JobSpec) {
				s.SizesBytes = repeatInt64(8192, 1024)
				s.CyclesNS = repeatInt64(20, 1024)
			},
			ErrGridTooLarge,
		},
		{"L2 size too large", func(s *JobSpec) { s.SizesBytes[0] = MaxL2SizeBytes + 1 }, ErrL2SizeOutOfRange},
		{"cycle too large", func(s *JobSpec) { s.CyclesNS[0] = MaxCycleNS + 1 }, ErrCycleOutOfRange},
		{"assoc too large", func(s *JobSpec) { s.Assoc = MaxAssoc + 1 }, ErrAssocOutOfRange},
		{"L1 too large", func(s *JobSpec) { s.L1KB = MaxL1KB + 1 }, ErrL1OutOfRange},
		{"refs absurd", func(s *JobSpec) { s.Refs = 1 << 40 }, ErrRefsOutOfRange},
		{"refs negative", func(s *JobSpec) { s.Refs = -1 }, ErrRefsOutOfRange},
		{"lenient too large", func(s *JobSpec) { s.Lenient = MaxLenientBudget + 1 }, ErrLenientOutOfRange},
		{"deadline negative", func(s *JobSpec) { s.DeadlineSec = -5 }, ErrDeadlineOutOfRange},
		{"deadline absurd", func(s *JobSpec) { s.DeadlineSec = MaxDeadlineSec + 1 }, ErrDeadlineOutOfRange},
		{"assoc not a power of two", func(s *JobSpec) { s.Assoc = 3 }, ErrMachineInvalid},
		{"L1 not a power of two", func(s *JobSpec) { s.L1KB = 3 }, ErrMachineInvalid},
		{"L2 size not a power of two", func(s *JobSpec) { s.SizesBytes[1] = 24 * 1024 }, ErrMachineInvalid},
	}
	for _, tc := range cases {
		spec := boundTestSpec()
		tc.mutate(&spec)
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: error %q does not wrap %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestValidateBoundsAccepts: realistic workloads — including the paper's
// full 110-point grid at multi-million-reference scale, unlimited lenient
// budgets, and specs at the exact bounds — stay admissible.
func TestValidateBoundsAccepts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"baseline", func(s *JobSpec) {}},
		{"paper-scale grid", func(s *JobSpec) {
			s.SizesBytes = repeatInt64(8192, 11)
			s.CyclesNS = repeatInt64(20, 10)
			s.Refs = 2_000_000
		}},
		{"unlimited lenient", func(s *JobSpec) { s.TracePath = "t.trace"; s.Lenient = -1 }},
		{"at the refs bound", func(s *JobSpec) { s.Refs = MaxRefs }},
		{"at the deadline bound", func(s *JobSpec) { s.DeadlineSec = MaxDeadlineSec }},
		{"with a deadline", func(s *JobSpec) { s.DeadlineSec = 30 }},
	}
	for _, tc := range cases {
		spec := boundTestSpec()
		tc.mutate(&spec)
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: Validate rejected a legitimate spec: %v", tc.name, err)
		}
	}
}
