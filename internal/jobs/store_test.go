package jobs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/store"
)

// Axis pools the resume tests draw random small grids from. Every value
// resolves against the real registries, so the cells replay real fleet
// runs — byte-identity claims are only meaningful against real output.
// The cohorts are awake all day: a diurnal cohort's first minutes are
// night, and its users would replay few or no packets.
var (
	resumeSchemes = []fleet.SchemeSpec{
		{Policy: policy.Spec{Name: "makeidle"}},
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}},
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "5s"}}},
	}
	resumeProfiles = []power.ProfileSpec{
		{Name: "verizon-3g"},
		{Name: "verizon-lte"},
	}
	resumeCohorts = []fleet.CohortSpec{
		{Name: "study-3g", Params: map[string]any{"users": 2, "duration": "2m", "diurnal": false}},
		{Name: "study-lte", Params: map[string]any{"users": 2, "duration": "2m", "diurnal": false}},
	}
)

// storeManager opens a store over dir and a manager using it as the
// second cell tier. The caller closes both (manager first).
func storeManager(t *testing.T, dir string) (*Manager, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(Config{Runners: 1, Workers: 2, Store: st}), st
}

// runSpec submits spec and waits for completion.
func runSpec(t *testing.T, m *Manager, spec Spec) *Result {
	t.Helper()
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		t.Fatal(err)
	}
	return job.Result()
}

// assertSameResult proves two results render byte-identically in every
// form, cell for cell, fingerprint for fingerprint.
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	wantJSON, err1 := want.JSON()
	gotJSON, err2 := got.JSON()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("job JSON differs")
	}
	wantCSV, err1 := want.CSV()
	gotCSV, err2 := got.CSV()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(wantCSV, gotCSV) {
		t.Fatal("job CSV differs")
	}
	if want.Text() != got.Text() {
		t.Fatal("job text differs")
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("cell count %d vs %d", len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		if want.Cells[i].Key != got.Cells[i].Key {
			t.Fatalf("cell %d fingerprint %s vs %s", i, got.Cells[i].Key, want.Cells[i].Key)
		}
		wc, err1 := want.Cells[i].JSON()
		gc, err2 := got.Cells[i].JSON()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(wc, gc) {
			t.Fatalf("cell %d JSON differs", i)
		}
	}
}

// assertSameSummaries proves two results hold deeply equal summaries, cell
// for cell and (for single-axis jobs) merged: equal bytes could in
// principle hide a difference the renderings round away, equal summaries
// cannot.
func assertSameSummaries(t *testing.T, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Summary, got.Summary) {
		t.Fatal("merged summaries differ")
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("cell count %d vs %d", len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		if !reflect.DeepEqual(want.Cells[i].Summary, got.Cells[i].Summary) {
			t.Fatalf("cell %d (%s/%s/%s) summary differs", i,
				want.Cells[i].Scheme, want.Cells[i].Profile, want.Cells[i].Cohort)
		}
	}
}

// TestResumeEquivalence is the resume property over random small grids:
// run a grid cold against a store, tear the manager down (a clean proxy
// for the crash the store tests cover at the file layer — the store's
// durability does not depend on Close), bring a fresh manager up over
// the same directory, and submit a superset grid. Only the frontier —
// the cells the first life never computed — may execute, counted by the
// instrumented run counter; re-submitting the original grid executes
// nothing. Every rendered byte of the resumed runs must equal a
// never-interrupted reference manager's output: job JSON/CSV/text,
// per-cell JSON, and per-cell fingerprints.
func TestResumeEquivalence(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			nsch := 1 + rng.Intn(2) // 1 or 2: the pool holds 3, so a frontier always exists
			npr := 1 + rng.Intn(len(resumeProfiles))
			cohort := rng.Intn(len(resumeCohorts))
			base := Spec{Seed: int64(trial + 1), Shards: 2,
				Schemes:  resumeSchemes[:nsch],
				Profiles: resumeProfiles[:npr],
				Cohorts:  resumeCohorts[cohort : cohort+1],
			}
			superset := base
			superset.Schemes = resumeSchemes[:nsch+1]

			// Reference: an uninterrupted manager with no store at all, and
			// with the trace cache (and so the wait tables) off, so every
			// resumed run below also compares memo on against memo off.
			ref := NewManager(Config{Runners: 1, Workers: 2, TraceCacheBytes: -1})
			refBase := runSpec(t, ref, base)
			refSuper := runSpec(t, ref, superset)
			ref.Close()

			// First life: cold run against an empty store — every cell executes.
			dir := t.TempDir()
			m1, st1 := storeManager(t, dir)
			cold := runSpec(t, m1, base)
			if got, want := m1.CellsExecuted(), uint64(len(cold.Cells)); got != want {
				t.Fatalf("cold run executed %d cells, want %d", got, want)
			}
			assertSameResult(t, refBase, cold)
			assertSameSummaries(t, refBase, cold)
			if st := m1.TraceCacheStats(); st.ReplayPasses == 0 {
				t.Fatalf("cold run never built a wait table: %+v", st)
			}
			m1.Close()
			if err := st1.Close(); err != nil {
				t.Fatal(err)
			}

			// Second life: fresh manager, same directory. The superset goes
			// first so its overlap with the base grid is provably served from
			// the store, not from a memory cache the base run refilled.
			m2, st2 := storeManager(t, dir)
			defer st2.Close()
			defer m2.Close()
			super := runSpec(t, m2, superset)
			frontier := uint64(len(super.Cells) - len(cold.Cells))
			if got := m2.CellsExecuted(); got != frontier {
				t.Fatalf("resumed superset executed %d cells, want frontier %d", got, frontier)
			}
			assertSameResult(t, refSuper, super)
			assertSameSummaries(t, refSuper, super)

			// The original grid is now fully covered: zero executions.
			resumedBase := runSpec(t, m2, base)
			if got := m2.CellsExecuted(); got != frontier {
				t.Fatalf("resubmitted base executed %d extra cells, want 0", got-frontier)
			}
			assertSameResult(t, refBase, resumedBase)
			assertSameSummaries(t, refBase, resumedBase)

			stats, ok := m2.StoreStats()
			if !ok || stats.Hits < uint64(len(cold.Cells)) {
				t.Fatalf("store hits = %d (ok=%v), want >= %d", stats.Hits, ok, len(cold.Cells))
			}
		})
	}
}

// TestStoreGarbageRecomputed plants a store record whose payload passes
// the store's digest check (it is exactly what was Put) but is not a
// valid cell encoding. The manager must quarantine it and recompute —
// never serve garbage — and the recomputed run heals the store and still
// matches a store-less reference byte for byte.
func TestStoreGarbageRecomputed(t *testing.T) {
	spec := Spec{Seed: 9, Shards: 2,
		Schemes:  resumeSchemes[:1],
		Profiles: resumeProfiles[:1],
		Cohorts:  resumeCohorts[:1],
	}
	ref := NewManager(Config{Runners: 1, Workers: 2})
	want := runSpec(t, ref, spec)
	ref.Close()
	key := want.Cells[0].Key

	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(key, []byte("not a cell payload")); err != nil {
		t.Fatal(err)
	}

	m := NewManager(Config{Runners: 1, Workers: 2, Store: st})
	defer m.Close()
	got := runSpec(t, m, spec)
	if m.CellsExecuted() != 1 {
		t.Fatalf("executed %d cells, want 1 (garbage must not be served)", m.CellsExecuted())
	}
	assertSameResult(t, want, got)
	if stats := st.Stats(); stats.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", stats.Quarantined)
	}

	// The recompute healed the store: a fresh manager over the same store
	// now serves the cell without executing anything.
	m2 := NewManager(Config{Runners: 1, Workers: 2, Store: st})
	defer m2.Close()
	healed := runSpec(t, m2, spec)
	if m2.CellsExecuted() != 0 {
		t.Fatalf("healed store still executed %d cells", m2.CellsExecuted())
	}
	assertSameResult(t, want, healed)
}

// TestCellLookupByKey exercises Manager.Cell — the GET /v1/cells handler's
// backend — across both tiers: memory hit, store hit after a restart, and
// a miss for an unknown key.
func TestCellLookupByKey(t *testing.T) {
	spec := Spec{Seed: 3, Shards: 2,
		Schemes:  resumeSchemes[:2],
		Profiles: resumeProfiles[:1],
		Cohorts:  resumeCohorts[:1],
	}
	dir := t.TempDir()
	m1, st1 := storeManager(t, dir)
	res := runSpec(t, m1, spec)
	key := res.Cells[1].Key
	wantJSON, err := res.Cells[1].JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Memory tier.
	c, ok := m1.Cell(key)
	if !ok || c.Key != key {
		t.Fatalf("memory lookup failed (ok=%v)", ok)
	}
	m1.Close()
	st1.Close()

	// Store tier, fresh process life.
	m2, st2 := storeManager(t, dir)
	defer st2.Close()
	defer m2.Close()
	c, ok = m2.Cell(key)
	if !ok {
		t.Fatal("store lookup failed")
	}
	gotJSON, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if c.Key != key || !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("store-served cell differs from the computed one")
	}
	if _, ok := m2.Cell("0000000000000000000000000000000000000000000000000000000000000000"); ok {
		t.Fatal("unknown key should miss")
	}
}
