package jobs

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
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
// output to the same grid with the cache disabled, at every worker
// budget. Every rendered form is compared (job JSON/CSV/text,
// per-cell JSON, per-cell fingerprints), the summaries deeply, plus the
// durable store contents record by record — and the enabled runs must
// actually hit the cache, so the equality is between a replayed slab and
// a regenerated stream, not between two identical code paths. The same
// holds for the wait tables the cache carries: the enabled runs must
// build one per user, and a cache too small to retain any slab (so no
// table either) must match too.
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
	ref := NewManager(Config{Runners: 1, Workers: 1,
		CacheSize: -1, CellCacheSize: -1, TraceCacheBytes: -1, Store: refStore})
	want := runSpec(t, ref, spec)
	if st := ref.TraceCacheStats(); st != (fleet.TraceCacheStats{}) {
		t.Fatalf("disabled trace cache reported activity: %+v", st)
	}
	ref.Close()

	// parN runs on a worker budget of N tokens: at most N cells in flight.
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			st, err := store.Open(store.Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			m := NewManager(Config{Runners: 1, Workers: par,
				CacheSize: -1, CellCacheSize: -1, Store: st})
			defer m.Close()
			got := runSpec(t, m, spec)
			assertSameResult(t, want, got)
			assertSameSummaries(t, want, got)

			stats := m.TraceCacheStats()
			if stats.Misses != users {
				t.Fatalf("generated %d traces, want one per user (%d): %+v",
					stats.Misses, users, stats)
			}
			if stats.Hits == 0 {
				t.Fatalf("cached run never hit the trace cache: %+v", stats)
			}
			if stats.ReplayPasses != users {
				t.Fatalf("wait tables: want one per user (%d): %+v", users, stats)
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

	// A one-byte budget generates every slab and retains none, so every
	// job replays its own baseline: the tables are off with the cache on.
	t.Run("slab-over-budget", func(t *testing.T) {
		m := NewManager(Config{Runners: 1, Workers: 2,
			CacheSize: -1, CellCacheSize: -1, TraceCacheBytes: 1})
		defer m.Close()
		got := runSpec(t, m, spec)
		assertSameResult(t, want, got)
		assertSameSummaries(t, want, got)
		if st := m.TraceCacheStats(); st.Entries != 0 || st.ReplayPasses != 0 {
			t.Fatalf("over-budget slabs were retained or memoized: %+v", st)
		}
	})
}

// TestBaselineMemoExactCounts pins how often a grid replays baselines: a
// fresh-seed grid of C cohorts x P profiles x S schemes x U users builds
// one wait table per (cohort, user), C·U, whose pass replays the user's
// baseline on every profile, and every one of the C·P·U·S jobs reads its
// baseline from it, at every worker budget: the grid's slabs decode at
// most once per table, per fit and per MakeIdle job, and never for a
// baseline. A resubmission served from the cell cache replays
// nothing, and a second fresh-seed grid adds the same counts again.
func TestBaselineMemoExactCounts(t *testing.T) {
	const users = 2 // each fixture cohort's population
	spec := func(seed int64) Spec {
		return Spec{Seed: seed, Shards: 2,
			Schemes:  traceCacheSchemes, // 3, one trace-fitted
			Profiles: resumeProfiles,    // x2
			Cohorts:  resumeCohorts,     // x2 = 12 cells
		}
	}
	cu := uint64(len(resumeCohorts) * users)
	makeidle := cu * uint64(len(resumeProfiles)) // the replays of the makeidle jobs

	// parN runs on a worker budget of N tokens: at most N cells in flight.
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			m := NewManager(Config{Runners: 1, Workers: par, CacheSize: -1})
			defer m.Close()
			var last fleet.TraceCacheStats
			step := func(label string, seed int64, passes, replays uint64) {
				t.Helper()
				runSpec(t, m, spec(seed))
				st := m.TraceCacheStats()
				dp, dd, df := st.ReplayPasses-last.ReplayPasses, st.SlabDecodes-last.SlabDecodes, st.FitMisses-last.FitMisses
				if dp != passes || dd > dp+df+replays {
					t.Fatalf("%s: +%d passes, +%d decodes and +%d fits, want +%d passes and at most %d decodes beyond passes and fits: %+v",
						label, dp, dd, df, passes, replays, st)
				}
				last = st
			}
			step("fresh grid", 61, cu, makeidle)
			step("resubmission", 61, 0, 0)
			step("second fresh grid", 62, cu, makeidle)
		})
	}
}

// TestBaselineMemoOrderIndependence is the who-computes-first property: on
// a one-token budget the first scheme in plan order builds every user's
// wait table, baselines included, and the later schemes read it, so
// reordering the scheme axis changes which scheme's cell computes each
// baseline. Every cell must come out the same, matched by label, as in a
// run without tables.
func TestBaselineMemoOrderIndependence(t *testing.T) {
	base := Spec{Seed: 67, Shards: 2,
		Schemes:  traceCacheSchemes,
		Profiles: resumeProfiles,
		Cohorts:  resumeCohorts[:1],
	}
	label := func(c *CellResult) string { return c.Scheme + "|" + c.Profile + "|" + c.Cohort }
	ref := NewManager(Config{Runners: 1, Workers: 1, TraceCacheBytes: -1})
	want := map[string]*CellResult{}
	for _, c := range runSpec(t, ref, base).Cells {
		want[label(c)] = c
	}
	ref.Close()

	// Every scheme leads once: the rotations of the axis.
	for rot := range traceCacheSchemes {
		t.Run(fmt.Sprintf("rot%d", rot), func(t *testing.T) {
			spec := base
			spec.Schemes = append(slices.Clone(traceCacheSchemes[rot:]), traceCacheSchemes[:rot]...)
			m := NewManager(Config{Runners: 1, Workers: 1, CacheSize: -1, CellCacheSize: -1})
			defer m.Close()
			got := runSpec(t, m, spec)
			if len(got.Cells) != len(want) {
				t.Fatalf("%d cells, want %d", len(got.Cells), len(want))
			}
			for _, c := range got.Cells {
				w := want[label(c)]
				if w == nil {
					t.Fatalf("cell %s missing from the reference", label(c))
				}
				wj, err1 := w.JSON()
				gj, err2 := c.JSON()
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if c.Key != w.Key || !bytes.Equal(wj, gj) || !reflect.DeepEqual(w.Summary, c.Summary) {
					t.Fatalf("cell %s differs when %s computes the baselines", label(c), got.Cells[0].Scheme)
				}
			}
			if st := m.TraceCacheStats(); st.ReplayPasses != 2 {
				t.Fatalf("want one wait table per user: %+v", st)
			}
		})
	}
}

// fitProfiles is the four-carrier profile axis of the fit-memo tests, so
// a profile-free fit is reused by three profiles per user.
var fitProfiles = []power.ProfileSpec{
	{Name: "tmobile-3g"}, {Name: "att-hspa+"}, {Name: "verizon-3g"}, {Name: "verizon-lte"},
}

// TestFitMemoExactCounts pins how often a grid fits trace-fitted
// policies: the 95% IAT fit ignores the profile, so a fresh-seed 95iat
// grid of C cohorts x P profiles x U users fits once per (cohort, user),
// C·U fit-memo misses. Its timer is a constant wait, so the job that
// builds each (cohort, user)'s wait table resolves it through the memo
// once, and each job looks it up for its own pair: C·U + C·P·U lookups,
// all but the C·U fits hits.
// MakeActive-Fix reads the profile, so makeidle+fix fits once per
// (cohort, profile, user), C·P·U misses and no hits. A resubmission
// served from the cell cache fits nothing. The counts hold at every
// worker budget (workersN) and shard count (parN), as in
// TestReplayMemoExactCounts.
func TestFitMemoExactCounts(t *testing.T) {
	const users = 2 // each fixture cohort's population
	cu := uint64(len(resumeCohorts) * users)
	p := uint64(len(fitProfiles))
	spec := func(seed int64, shards int, ss fleet.SchemeSpec) Spec {
		return Spec{Seed: seed, Shards: shards, Schemes: []fleet.SchemeSpec{ss},
			Profiles: fitProfiles, Cohorts: resumeCohorts}
	}
	iat := fleet.SchemeSpec{Policy: policy.Spec{Name: "95iat"}}
	fix := fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: fleet.ActiveFix}}

	for _, workers := range []int{1, 4} {
		for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("workers%d-par%d", workers, par), func(t *testing.T) {
				m := NewManager(Config{Runners: 1, Workers: workers, CacheSize: -1})
				defer m.Close()
				var last fleet.TraceCacheStats
				step := func(label string, s Spec, misses, hits uint64) {
					t.Helper()
					runSpec(t, m, s)
					st := m.TraceCacheStats()
					if dm, dh := st.FitMisses-last.FitMisses, st.FitHits-last.FitHits; dm != misses || dh != hits {
						t.Fatalf("%s: +%d fit misses and +%d hits, want +%d and +%d: %+v",
							label, dm, dh, misses, hits, st)
					}
					last = st
				}
				step("95iat grid", spec(71, par, iat), cu, cu*p)
				step("95iat resubmission", spec(71, par, iat), 0, 0)
				step("makeidle+fix grid", spec(72, par, fix), cu*p, 0)
				step("makeidle+fix resubmission", spec(72, par, fix), 0, 0)
			})
		}
	}
}

// TestFitMemoMixedPairsConcurrent: grids of mixed pairs — a shared
// profile-free fit beside an online MakeActive (pctiat+learn), and an
// online MakeIdle beside a profile-reading fit (makeidle+fix) — run with
// cells in flight concurrently over the fit memo come out byte-identical
// to a sequential run that fits every job itself. Under -race this is
// also the test that sharing one fitted policy between concurrent replays
// is safe.
func TestFitMemoMixedPairsConcurrent(t *testing.T) {
	spec := Spec{Seed: 73, Shards: 2,
		Schemes: []fleet.SchemeSpec{
			{Policy: policy.Spec{Name: "pctiat", Params: map[string]any{"q": 0.9}}, Active: &policy.Spec{Name: "learn"}},
			{Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: fleet.ActiveFix}},
			{Policy: policy.Spec{Name: "95iat"}},
		},
		Profiles: fitProfiles,
		Cohorts:  resumeCohorts,
	}
	ref := NewManager(Config{Runners: 1, Workers: 1,
		CacheSize: -1, CellCacheSize: -1, TraceCacheBytes: -1})
	want := runSpec(t, ref, spec)
	ref.Close()

	// parN runs on a worker budget of N tokens: at most N cells in flight.
	for _, par := range []int{2, runtime.GOMAXPROCS(0) + 1} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			m := NewManager(Config{Runners: 1, Workers: par, CacheSize: -1, CellCacheSize: -1})
			defer m.Close()
			got := runSpec(t, m, spec)
			assertSameResult(t, want, got)
			assertSameSummaries(t, want, got)
			if st := m.TraceCacheStats(); st.FitHits == 0 {
				t.Fatalf("no fit was served from the memo: %+v", st)
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

	ref := NewManager(Config{Runners: 1, Workers: 1,
		CacheSize: -1, CellCacheSize: -1})
	want := runSpec(t, ref, spec)
	if len(want.Cells) != cells {
		t.Fatalf("fixture expanded to %d cells, want %d", len(want.Cells), cells)
	}
	ref.Close()

	m := NewManager(Config{Runners: 1, Workers: cells,
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
// single-flight design guarantees: with a single worker token shared by
// every cell of a shared-cohort grid, a cell waiting on another cell's
// generation must not starve the generator. The grid simply completing
// (and matching the sequential run) is the assertion — a token/waiter
// cycle would hang the test.
func TestTraceCacheBudgetAdmission(t *testing.T) {
	spec := Spec{Seed: 29, Shards: 2,
		Schemes:  traceCacheSchemes,
		Profiles: resumeProfiles[:1],
		Cohorts:  resumeCohorts[:1],
	}
	ref := NewManager(Config{Runners: 1, Workers: 1,
		CacheSize: -1, CellCacheSize: -1, TraceCacheBytes: -1})
	want := runSpec(t, ref, spec)
	ref.Close()

	m := NewManager(Config{Runners: 1, Workers: 1,
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
