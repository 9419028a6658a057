package jobs

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkGridSweep measures grid-job execution end to end through the
// manager: a 2 schemes × 2 profiles × 1 cohort grid (4 cells, 4 streamed
// users each) per iteration, with both caches disabled so every iteration
// replays every cell. Reported: cells/sec and allocations per cell — the
// evidence that per-cell overhead (planning, canonical encodings,
// rendering) stays small next to the replays themselves.
func BenchmarkGridSweep(b *testing.B) {
	benchGrid(b, Config{}, BenchGridSpec(), BenchGridCells)
}

// BenchmarkGridSweepSharedCohort measures cohort trace memoization: 6
// schemes sweep one shared 4-user diurnal cohort, so the uncached run
// re-synthesizes each user's traffic for every replay (twice per job —
// baseline and scheme — plus a materialization for the trace-fitted
// scheme) while the cached run generates each user once into an encoded
// slab and decodes every later replay straight out of the shared bytes.
// cached/uncached cells/sec is the memoization headline; results are
// byte-identical either way (TestTraceCacheEquivalence).
func BenchmarkGridSweepSharedCohort(b *testing.B) {
	b.Run("cached", func(b *testing.B) { // default budget
		benchGrid(b, Config{}, BenchSharedCohortGridSpec(), BenchSharedCohortGridCells)
	})
	b.Run("uncached", func(b *testing.B) {
		benchGrid(b, Config{TraceCacheBytes: -1}, BenchSharedCohortGridSpec(), BenchSharedCohortGridCells)
	})
}

// BenchmarkGridSweepWide measures cell-level scheduling on a wide grid: 32
// small cells whose replays are short enough that dispatch, budget handoff
// and ordered collection are a visible share of the work. The seq
// sub-benchmark runs on a one-token budget (Workers: 1, one cell at a
// time); par uses the all-core default. On a multi-core machine par/seq
// cells/sec is the saturation ratio; results are byte-identical either
// way (TestCellParallelDeterminism).
func BenchmarkGridSweepWide(b *testing.B) {
	b.Run("seq", func(b *testing.B) {
		benchGrid(b, Config{Workers: 1}, BenchWideGridSpec(), BenchWideGridCells)
	})
	b.Run("par", func(b *testing.B) {
		benchGrid(b, Config{}, BenchWideGridSpec(), BenchWideGridCells)
	})
}

// benchGrid submits spec b.N times to a one-runner manager built from cfg
// with the result and cell caches disabled, so every iteration replays
// every cell, and reports cells/sec and allocations per cell.
func benchGrid(b *testing.B, cfg Config, spec Spec, cells int) {
	cfg.Runners, cfg.CacheSize, cfg.CellCacheSize = 1, -1, -1
	m := NewManager(cfg)
	defer m.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := m.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		if err := job.Err(); err != nil {
			b.Fatal(err)
		}
		if len(job.Result().Cells) != cells {
			b.Fatalf("grid produced %d cells", len(job.Result().Cells))
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	elapsed := time.Since(start)
	b.ReportMetric(float64(cells*b.N)/elapsed.Seconds(), "cells/sec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(cells*b.N), "allocs/cell")
}
