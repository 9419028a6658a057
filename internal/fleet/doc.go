// Package fleet is the sharded, parallel multi-user simulation runtime: it
// fans (trace × profile × policy) replay jobs across a worker pool and
// reduces per-job outcomes into mergeable aggregates without retaining
// per-user results.
//
// # Determinism
//
// Results are bit-identical for any worker count. Jobs are partitioned into
// contiguous shards by submission order; a shard is the unit of scheduling,
// and within a shard jobs run sequentially in order. Each shard folds its
// outcomes into its own accumulator, and shard accumulators merge in shard
// index order after all workers finish. Worker count therefore only decides
// which goroutine runs a shard, never the order of any floating-point
// reduction. Changing the shard count regroups the reduction and may move
// results by float-rounding noise; changing the worker count cannot.
//
// # Memory
//
// Each worker owns one reusable sim.Engine, and each shard holds one
// accumulator. Aggregating an n-user cohort therefore costs O(workers +
// shards) live state, not O(n): traces are generated in-worker from the
// job's seed, replayed, folded, and dropped.
//
// # Progress and cancellation
//
// Options.OnShard delivers a Progress count after every completed shard,
// and RunSummaryLazyProgress additionally hands out a snapshot function
// that merges a partial Summary over the shards finished so far. Both
// observe the run from the outside: partial views merge only completed
// shard accumulators (always in shard index order), so watching progress
// never perturbs the final shard-ordered reduction — the end result stays
// bit-identical whether or not anyone is listening.
//
// A run aborts early when Options.Cancel is closed. Cancellation is
// checked between jobs, so the replay in flight on each worker finishes
// before the run returns ErrCanceled; no partially folded outcome is ever
// observed.
package fleet
