package jobs

import (
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
)

// BenchGridSpec is the canonical throughput-benchmark grid, shared by
// BenchmarkGridSweep and cmd/benchdump so the committed baseline
// (BENCH_grid.json) and the in-tree benchmark always measure the same
// computation: 2 schemes × 2 profiles × 1 cohort (4 cells), 4 streamed
// users of 10 minutes each, result and cell caches disabled by the caller
// so every run replays every cell.
func BenchGridSpec() Spec {
	return Spec{Seed: 1, Shards: 4,
		Schemes: []fleet.SchemeSpec{
			{Policy: policy.Spec{Name: "makeidle"}},
			{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}},
		},
		Profiles: []power.ProfileSpec{
			{Name: "verizon-3g"},
			{Name: "verizon-lte"},
		},
		Cohorts: []fleet.CohortSpec{
			{Name: "study-3g", Params: map[string]any{"users": 4, "duration": "10m"}},
		},
	}
}

// BenchGridCells is BenchGridSpec's cell count (the benchmark's work unit).
const BenchGridCells = 4

// BenchWideGridSpec is the wide scheduling benchmark: many small cells
// (4 schemes × 4 profiles × 2 cohorts = 32 cells of 2 users × 10 minutes,
// one shard each) so per-cell replay work is short and the cost under
// measurement is the executor itself — dispatch, budget handoff, ordered
// collection. BenchmarkGridSweepWide runs it on a one-token budget and at
// the all-core default; the ratio is the machine-saturation headline.
func BenchWideGridSpec() Spec {
	return Spec{Seed: 1, Shards: 1,
		Schemes: []fleet.SchemeSpec{
			{Policy: policy.Spec{Name: "makeidle"}},
			{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}},
			{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "5s"}}},
			{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "10s"}}},
		},
		Profiles: []power.ProfileSpec{
			{Name: "verizon-3g"},
			{Name: "verizon-lte"},
			{Name: "tmobile-3g"},
			{Name: "att-hspa+"},
		},
		Cohorts: []fleet.CohortSpec{
			{Name: "study-3g", Params: map[string]any{"users": 2, "duration": "10m"}},
			{Name: "study-3g", Params: map[string]any{"users": 2, "duration": "15m"}},
		},
	}
}

// BenchWideGridCells is BenchWideGridSpec's cell count.
const BenchWideGridCells = 32

// BenchSharedCohortGridSpec is the trace-memoization benchmark: many
// schemes sweeping one shared cohort (6 schemes × 1 profile × 1 cohort =
// 6 cells of 4 diurnal users × 30 minutes), so the same per-user traffic
// would be synthesized once per replay without the trace cache — the
// diurnal mask and the reorder buffer make generation the dominant
// per-cell cost. BenchmarkGridSweepSharedCohort runs it with the cohort
// trace cache enabled and disabled; the ratio is the generate-once,
// replay-everywhere headline. One trace-fitted scheme (95iat) rides along
// so the fit-from-slab path is measured too.
func BenchSharedCohortGridSpec() Spec {
	return Spec{Seed: 1, Shards: 2,
		Schemes: []fleet.SchemeSpec{
			{Policy: policy.Spec{Name: "statusquo"}},
			{Policy: policy.Spec{Name: "makeidle"}},
			{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}},
			{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "5s"}}},
			{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "10s"}}},
			{Policy: policy.Spec{Name: "95iat"}},
		},
		Profiles: []power.ProfileSpec{
			{Name: "verizon-3g"},
		},
		Cohorts: []fleet.CohortSpec{
			{Name: "study-3g", Params: map[string]any{"users": 4, "duration": "30m"}},
		},
	}
}

// BenchSharedCohortGridCells is BenchSharedCohortGridSpec's cell count.
const BenchSharedCohortGridCells = 6
