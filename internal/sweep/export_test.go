package sweep

import "context"

// SimulateEach exposes the oracle to the external test package.
var SimulateEach = simulateEach

// TagCounts reports how many replays of one run played a tag script to the
// end (Played) and how many departed from it and were replayed again
// through their own tag arrays (Demoted).
type TagCounts struct{ Played, Demoted int64 }

// RunCounted is RunContext that also returns the run's TagCounts.
func RunCounted(r Runner, ctx context.Context, pts []Point, opts Options) ([]Result, TagCounts, error) {
	var n tagCounts
	results, err := r.run(ctx, pts, opts, &n)
	return results, TagCounts{Played: n.played.Load(), Demoted: n.demoted.Load()}, err
}
