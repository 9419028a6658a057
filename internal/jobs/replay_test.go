package jobs

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The wait tables: each retained slab replays a grid's whole wait axis
// (the fixedtail, statusquo and oracle schemes, the fitted 95iat timer
// and the StatusQuo baseline) on every profile in one pass per plan.
// These tests pin their counts and that they never change a byte.

func fixedTailSpec(wait string) fleet.SchemeSpec {
	return fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": wait}}}
}

// paperShapedSchemes is the paper grid's scheme axis plus a fixed tail
// beyond every carrier's tail: the statusquo scheme, the 30s tail and the
// baseline all replay the tail-clamped wait, so they share one table entry.
var paperShapedSchemes = []fleet.SchemeSpec{
	{Policy: policy.Spec{Name: "statusquo"}},
	fixedTailSpec("4.5s"),
	{Policy: policy.Spec{Name: "95iat"}},
	{Policy: policy.Spec{Name: "makeidle"}},
	{Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: "learn"}},
	fixedTailSpec("30s"),
}

// TestReplayMemoExactCounts pins how often a tail-sweep-shaped grid
// replays: over S schemes (fixed tails, statusquo, the Oracle and the
// fitted 95iat timer, every one a wait rule) on C cohorts x P profiles x
// U users, a fresh-seed grid runs exactly one pass per (cohort, user),
// C·U, for all P profiles: the user's first job builds the grid plan's
// wait table, fitting 95iat first, and every baseline and every scheme
// replay is read from it, so no scheme replay runs a pass of its own or
// goes through the engine. The profile-free fit runs once per (cohort,
// user), C·U. A resubmission served from the cell cache runs nothing, and
// a second fresh-seed grid adds the same counts again,
// at every worker budget (workersN: one token runs the cells one at a
// time, four run four cells at once) and every shard count (parN: the
// partitions each cell's users split into, which the budget's extra
// workers replay concurrently).
func TestReplayMemoExactCounts(t *testing.T) {
	const users = 2 // each fixture cohort's population
	schemes := []fleet.SchemeSpec{fixedTailSpec("1s"), fixedTailSpec("3s"), fixedTailSpec("8s"),
		{Policy: policy.Spec{Name: "statusquo"}}, {Policy: policy.Spec{Name: "oracle"}}, {Policy: policy.Spec{Name: "95iat"}}}
	spec := func(seed int64, shards int) Spec {
		return Spec{Seed: seed, Shards: shards, Schemes: schemes, Profiles: fitProfiles, Cohorts: resumeCohorts}
	}
	cu := uint64(len(resumeCohorts) * users)
	want := fleet.TraceCacheStats{ReplayPasses: cu, FitMisses: cu}

	for _, workers := range []int{1, 4} {
		for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("workers%d-par%d", workers, par), func(t *testing.T) {
				m := NewManager(Config{Runners: 1, Workers: workers, CacheSize: -1})
				defer m.Close()
				var last fleet.TraceCacheStats
				step := func(label string, seed int64, want fleet.TraceCacheStats) {
					t.Helper()
					runSpec(t, m, spec(seed, par))
					st := m.TraceCacheStats()
					got := fleet.TraceCacheStats{
						ReplayPasses: st.ReplayPasses - last.ReplayPasses,
						FitMisses:    st.FitMisses - last.FitMisses,
					}
					if got != want {
						t.Fatalf("%s: added %+v, want %+v", label, got, want)
					}
					last = st
				}
				step("fresh grid", 81, want)
				step("resubmission", 81, fleet.TraceCacheStats{})
				step("second fresh grid", 82, want)
			})
		}
	}
}

// TestTraceCacheOneDecodePerUser pins the one-decode rule on a cold
// tail-sweep-shaped grid (fixed tails, statusquo, the Oracle and the
// fitted 95iat timer on four profiles, two cohorts): the job that builds
// each (cohort, user)'s wait table collects its slab once for the 95iat
// fit and replays the table's pass from the collected packets, so on one
// worker token the grid decodes exactly one slab per pass, C·U of each,
// and a resubmission decodes nothing. With four tokens a cell on another
// worker may fit the user first; the builder then decodes for its pass,
// so a pass costs at most one decode beyond the fits.
func TestTraceCacheOneDecodePerUser(t *testing.T) {
	const users = 2 // each fixture cohort's population
	schemes := []fleet.SchemeSpec{fixedTailSpec("1s"), fixedTailSpec("3s"), fixedTailSpec("8s"),
		{Policy: policy.Spec{Name: "statusquo"}}, {Policy: policy.Spec{Name: "oracle"}}, {Policy: policy.Spec{Name: "95iat"}}}
	cu := uint64(len(resumeCohorts) * users)
	for _, workers := range []int{1, 4} {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("workers%d-par%d", workers, par), func(t *testing.T) {
				m := NewManager(Config{Runners: 1, Workers: workers, CacheSize: -1})
				defer m.Close()
				var last fleet.TraceCacheStats
				step := func(label string, seed int64, want uint64) {
					t.Helper()
					runSpec(t, m, Spec{Seed: seed, Shards: par, Schemes: schemes, Profiles: fitProfiles, Cohorts: resumeCohorts})
					st := m.TraceCacheStats()
					decodes, passes, fits := st.SlabDecodes-last.SlabDecodes, st.ReplayPasses-last.ReplayPasses, st.FitMisses-last.FitMisses
					last = st
					if passes != want || fits != want {
						t.Fatalf("%s: %d passes and %d fits, want %d each", label, passes, fits, want)
					}
					if workers == 1 && decodes != passes || decodes < passes || decodes > passes+fits {
						t.Fatalf("%s: %d slab decodes for %d passes and %d fits", label, decodes, passes, fits)
					}
				}
				step("fresh grid", 91, cu)
				step("resubmission", 91, 0)
				step("second fresh grid", 92, cu)
			})
		}
	}
}

// TestReplayMemoEquivalence: wait tables on and off render the same
// bytes and DeepEqual summaries, on a paper-grid-shaped grid (where
// statusquo, the 30s tail and the baseline share one table entry) and on
// a wider grid over the same cohort and seed, partly served from the cell
// cache. The two grids' plans differ, so each builds its own tables over
// the slabs the first generated: exactly one pass per (cohort, user) per
// plan.
func TestReplayMemoEquivalence(t *testing.T) {
	paper := Spec{Seed: 83, Shards: 2, Schemes: paperShapedSchemes, Profiles: resumeProfiles, Cohorts: resumeCohorts[:1]}
	wider := paper
	wider.Schemes = append(slices.Clone(paperShapedSchemes), fixedTailSpec("2s"), fixedTailSpec("9s"))
	wider.Profiles = fitProfiles

	off := NewManager(Config{Runners: 1, Workers: 1,
		CacheSize: -1, CellCacheSize: -1, TraceCacheBytes: -1})
	wantPaper, wantWider := runSpec(t, off, paper), runSpec(t, off, wider)
	off.Close()

	// parN runs on a worker budget of N tokens: at most N cells in flight.
	for _, par := range []int{1, runtime.GOMAXPROCS(0) + 1} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			m := NewManager(Config{Runners: 1, Workers: par, CacheSize: -1})
			defer m.Close()
			got := runSpec(t, m, paper)
			assertSameResult(t, wantPaper, got)
			assertSameSummaries(t, wantPaper, got)
			const users = 2
			// statusquo, 4.5s, 30s, the fitted 95iat timer and every
			// baseline read the table of the user's first job, which
			// covers both profiles.
			if st := m.TraceCacheStats(); st.ReplayPasses != users || st.FitMisses != users || st.Misses != users {
				t.Fatalf("paper-shaped grid: %+v", st)
			}

			before := m.CellsExecuted()
			got = runSpec(t, m, wider)
			assertSameResult(t, wantWider, got)
			assertSameSummaries(t, wantWider, got)
			if served := uint64(len(got.Cells)) - (m.CellsExecuted() - before); served != uint64(len(wantPaper.Cells)) {
				t.Fatalf("%d cells served from the cell cache, want %d", served, len(wantPaper.Cells))
			}
			// The wider plan builds its own table per user over the same
			// slabs, and reuses each user's fit.
			if st := m.TraceCacheStats(); st.ReplayPasses != 2*users || st.FitMisses != users || st.Misses != users {
				t.Fatalf("wider grid: %+v", st)
			}
		})
	}
}

// TestReplayMemoOrderIndependence is the who-builds-first property for
// the wait tables: on a one-token budget the first scheme in plan order
// builds every user's table, so each rotation of the scheme axis hands
// the build to another scheme — a constant wait, a fitted one, or a
// MakeIdle cell that reads nothing but its baseline. Every cell must come
// out the same, matched by label, as in a run without tables.
func TestReplayMemoOrderIndependence(t *testing.T) {
	base := Spec{Seed: 89, Shards: 2, Schemes: paperShapedSchemes, Profiles: resumeProfiles, Cohorts: resumeCohorts[:1]}
	label := func(c *CellResult) string { return c.Scheme + "|" + c.Profile + "|" + c.Cohort }
	ref := NewManager(Config{Runners: 1, Workers: 1, TraceCacheBytes: -1})
	want := map[string]*CellResult{}
	for _, c := range runSpec(t, ref, base).Cells {
		want[label(c)] = c
	}
	ref.Close()

	for rot := range paperShapedSchemes {
		t.Run(fmt.Sprintf("rot%d", rot), func(t *testing.T) {
			spec := base
			spec.Schemes = append(slices.Clone(paperShapedSchemes[rot:]), paperShapedSchemes[:rot]...)
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
					t.Fatalf("cell %s differs when %s builds the tables", label(c), got.Cells[0].Scheme)
				}
			}
			if st := m.TraceCacheStats(); st.ReplayPasses != 2 {
				t.Fatalf("want one table per user: %+v", st)
			}
		})
	}
}

// TestPlanWaits pins the plan-time wait axis: one clamped, deduplicated
// rule list per profile, in the grid's profile order, from the schemes
// that declare the WaitRule capability with neither a fitted nor a
// batching half — here the statusquo scheme and the 30s tail both clamp
// to the tail, and the Oracle's threshold is the profile's t_threshold —
// and one list of fitted halves, the 95iat timer's; makeidle and
// makeidle+learn add nothing. Every job of the grid, whatever its cell,
// carries the one plan, and planning the spec again gives a plan with the
// same key, while another profile axis gives another.
func TestPlanWaits(t *testing.T) {
	schemes := append(slices.Clone(paperShapedSchemes), fleet.SchemeSpec{Policy: policy.Spec{Name: "oracle"}})
	spec := Spec{Seed: 1, Shards: 2, Schemes: schemes, Profiles: fitProfiles, Cohorts: resumeCohorts}.withDefaults()
	cells, _, err := spec.planFingerprint(fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iat, err := fleet.ResolveScheme(registry(), fleet.SchemeSpec{Policy: policy.Spec{Name: "95iat"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fitProfiles) < 2 {
		t.Fatal("the grid needs several profiles")
	}
	plan := cells[0].plan
	if len(plan.Sets) != len(fitProfiles) {
		t.Fatalf("%d wait sets, want one per profile", len(plan.Sets))
	}
	for k, set := range plan.Sets {
		if set.Prof.Name != cells[k*len(schemes)].Profile {
			t.Fatalf("wait set %d is %s's, want %s's", k, set.Prof.Name, cells[k*len(schemes)].Profile)
		}
		want := []sim.Wait{{D: set.Prof.Tail()}, {D: 4500 * time.Millisecond}, {Oracle: true, D: energy.Threshold(&set.Prof)}}
		if !slices.Equal(set.Rules, want) {
			t.Fatalf("%s waits %v, want %v", set.Prof.Name, set.Rules, want)
		}
	}
	if len(plan.Fits) != 1 || plan.Fits[0].Key != iat.Scheme.DemoteFit {
		t.Fatalf("fitted halves %+v, want the 95iat timer's %+v", plan.Fits, iat.Scheme.DemoteFit)
	}
	if plan.Opts != (sim.Options{BurstGap: time.Duration(spec.BurstGap)}) {
		t.Fatalf("plan options %+v, want the spec's burst gap", plan.Opts)
	}
	for _, c := range cells {
		for _, j := range c.Jobs() {
			if j.Plan != plan {
				t.Fatalf("cell %s/%s: job does not share the grid's plan", c.Scheme, c.Profile)
			}
		}
	}

	again, _, err := spec.planFingerprint(fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Profiles = fitProfiles[1:]
	narrower, _, err := other.planFingerprint(fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].plan == plan || again[0].plan.Key != plan.Key || narrower[0].plan.Key == plan.Key {
		t.Fatalf("plan keys: %s, replanned %s, narrower %s", plan.Key, again[0].plan.Key, narrower[0].plan.Key)
	}
}
