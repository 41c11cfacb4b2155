package routing

import "testing"

// ForceShards cuts every run that may shard (no Transport, no
// AdaptiveRouter) into the given power-of-two number of row-block
// shards, at most one row a shard, whatever its size and GOMAXPROCS,
// and runs the workers of every multi-cycle RunTo whatever the
// processor budget, until t ends. Tests that call it must not run in
// parallel.
func ForceShards(t testing.TB, shards int) {
	forcedShards.Store(int32(shards))
	t.Cleanup(func() { forcedShards.Store(0) })
}

// Shards returns the number of shards s runs on.
func Shards(s *Sim) int { return len(s.shards) }

// Engaged reports whether s's worker team holds its processors, so its
// workers run the current cycle's phases.
func Engaged(s *Sim) bool { return s.team != nil && s.team.held }

// HoldProcessors takes n processors from the budget the worker teams
// share, as n concurrent runs would, and returns the func that gives
// them back.
func HoldProcessors(n int) (release func()) {
	busy.Add(int32(n))
	return func() { busy.Add(-int32(n)) }
}
