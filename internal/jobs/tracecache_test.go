package jobs

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/store"
)

// traceCacheSchemes is the scheme pool for the trace-cache properties:
// it deliberately includes a trace-fitted scheme (95iat materializes the
// user's trace to fit its timer), so the tests cover both the streaming
// replay path and the fit-from-slab path.
var traceCacheSchemes = []fleet.SchemeSpec{
	{Policy: policy.Spec{Name: "makeidle"}},
	{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}},
	{Policy: policy.Spec{Name: "95iat"}},
}

// TestTraceCacheEquivalence is the memoization-is-invisible property: a
// grid run with the cohort trace cache enabled produces byte-identical
// output to the same grid with the cache disabled, at every cell
// concurrency level. Every rendered form is compared (job JSON/CSV/text,
// per-cell JSON, per-cell fingerprints) plus the durable store contents
// record by record — and the enabled runs must actually hit the cache,
// so the equality is between a replayed slab and a regenerated stream,
// not between two identical code paths.
func TestTraceCacheEquivalence(t *testing.T) {
	spec := Spec{Seed: 17, Shards: 2,
		Schemes:  traceCacheSchemes, // 3, one trace-fitted
		Profiles: resumeProfiles,    // x2
		Cohorts:  resumeCohorts[:1], // x1 = 6 cells, one shared cohort
	}
	const users = 2 // study-3g fixture population

	refStore, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	ref := NewManager(Config{Runners: 1, Workers: 2, CellParallel: 1,
		CacheSize: -1, CellCacheSize: -1, TraceCacheBytes: -1, Store: refStore})
	want := runSpec(t, ref, spec)
	if st := ref.TraceCacheStats(); st != (fleet.TraceCacheStats{}) {
		t.Fatalf("disabled trace cache reported activity: %+v", st)
	}
	ref.Close()

	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			st, err := store.Open(store.Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			m := NewManager(Config{Runners: 1, Workers: 4, CellParallel: par,
				CacheSize: -1, CellCacheSize: -1, Store: st})
			defer m.Close()
			got := runSpec(t, m, spec)
			assertSameResult(t, want, got)

			stats := m.TraceCacheStats()
			if stats.Misses != users {
				t.Fatalf("generated %d traces, want one per user (%d): %+v",
					stats.Misses, users, stats)
			}
			if stats.Hits == 0 {
				t.Fatalf("cached run never hit the trace cache: %+v", stats)
			}

			if st.Len() != refStore.Len() {
				t.Fatalf("store holds %d cells, reference %d", st.Len(), refStore.Len())
			}
			for _, c := range want.Cells {
				wantRec, ok1 := refStore.Get(c.Key)
				gotRec, ok2 := st.Get(c.Key)
				if !ok1 || !ok2 {
					t.Fatalf("cell %s missing from a store (ref=%v cur=%v)", c.Key, ok1, ok2)
				}
				if !bytes.Equal(wantRec, gotRec) {
					t.Fatalf("cell %s store record differs from uncached run", c.Key)
				}
			}
		})
	}
}

// TestTraceCacheSingleFlight pins the generate-once guarantee at the
// manager level: with every cell of a shared-cohort grid in flight at
// once, the cache's generation counter (Misses counts generations
// actually run; concurrent waiters count as hits) must equal the cohort
// population — N racing cells, one generation per user — and the output
// must match a sequential run of the same grid byte for byte. Under
// -race this is also the single-flight synchronization test.
func TestTraceCacheSingleFlight(t *testing.T) {
	spec := Spec{Seed: 23, Shards: 2,
		Schemes:  traceCacheSchemes,
		Profiles: resumeProfiles,
		Cohorts:  resumeCohorts[:1],
	}
	const users, cells = 2, 6

	ref := NewManager(Config{Runners: 1, Workers: 2, CellParallel: 1,
		CacheSize: -1, CellCacheSize: -1})
	want := runSpec(t, ref, spec)
	if len(want.Cells) != cells {
		t.Fatalf("fixture expanded to %d cells, want %d", len(want.Cells), cells)
	}
	ref.Close()

	m := NewManager(Config{Runners: 1, Workers: 4, CellParallel: cells,
		CacheSize: -1, CellCacheSize: -1})
	defer m.Close()
	got := runSpec(t, m, spec)
	assertSameResult(t, want, got)

	stats := m.TraceCacheStats()
	if stats.Misses != users {
		t.Fatalf("%d generations across %d concurrent cells, want %d (one per user): %+v",
			stats.Misses, cells, users, stats)
	}
	// Every job consults the cache once; all but the generating calls hit.
	if wantHits := uint64(cells*users - users); stats.Hits != wantHits {
		t.Fatalf("hits = %d, want %d: %+v", stats.Hits, wantHits, stats)
	}
}

// TestTraceCacheBudgetAdmission is the no-deadlock property the cache's
// single-flight design guarantees: with a single worker token and more
// concurrent cells than tokens, cells waiting on another cell's
// generation must not starve the generator. The grid simply completing
// (and matching the sequential run) is the assertion — a token/waiter
// cycle would hang the test.
func TestTraceCacheBudgetAdmission(t *testing.T) {
	spec := Spec{Seed: 29, Shards: 2,
		Schemes:  traceCacheSchemes,
		Profiles: resumeProfiles[:1],
		Cohorts:  resumeCohorts[:1],
	}
	ref := NewManager(Config{Runners: 1, Workers: 2, CellParallel: 1,
		CacheSize: -1, CellCacheSize: -1, TraceCacheBytes: -1})
	want := runSpec(t, ref, spec)
	ref.Close()

	m := NewManager(Config{Runners: 1, Workers: 1, CellParallel: 4,
		CacheSize: -1, CellCacheSize: -1})
	defer m.Close()
	assertSameResult(t, want, runSpec(t, m, spec))
}

// TestTraceCacheJobRetention pins the cache's retention across jobs with
// the result and cell caches out of the way, so every submission runs:
// resubmitting one spec generates nothing after the first job (each job
// touches the previous job's slabs, so they stay), and a run of
// fresh-seed jobs holds at most two jobs' worth of users, because each
// job start drops the slabs only the job before last touched.
func TestTraceCacheJobRetention(t *testing.T) {
	const users = 2 // study-3g fixture population
	spec := func(seed int64) Spec {
		return Spec{Seed: seed, Shards: 2,
			Schemes:  traceCacheSchemes,
			Profiles: resumeProfiles[:1],
			Cohorts:  resumeCohorts[:1],
		}
	}
	newManager := func() *Manager {
		return NewManager(Config{Runners: 1, Workers: 2, CacheSize: -1, CellCacheSize: -1})
	}

	t.Run("resubmit", func(t *testing.T) {
		m := newManager()
		defer m.Close()
		for i := 0; i < 4; i++ {
			runSpec(t, m, spec(41))
		}
		if st := m.TraceCacheStats(); st.Misses != users || st.Evictions != 0 || st.Entries != users {
			t.Fatalf("resubmitted spec regenerated or lost its traffic: %+v", st)
		}
	})

	t.Run("fresh-seeds", func(t *testing.T) {
		m := newManager()
		defer m.Close()
		const jobs = 5
		for i := 1; i <= jobs; i++ {
			runSpec(t, m, spec(int64(100+i)))
			if st := m.TraceCacheStats(); st.Entries > 2*users {
				t.Fatalf("after job %d the cache holds %d slabs, want at most %d: %+v", i, st.Entries, 2*users, st)
			}
		}
		st := m.TraceCacheStats()
		if st.Misses != jobs*users || st.Evictions != (jobs-2)*users {
			t.Fatalf("want %d generations and %d drops: %+v", jobs*users, (jobs-2)*users, st)
		}
	})
}
