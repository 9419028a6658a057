package jobs

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/store"
)

// TestCellParallelDeterminism is the scheduling-independence property: a
// grid run on any worker budget — 2, the machine width, more tokens than
// cells, each the most cells it runs at once — produces byte-identical
// output to the strictly sequential run on a one-token budget
// (Workers: 1). Every rendered form is compared (job JSON/CSV/text,
// per-cell JSON, per-cell fingerprints, via assertSameResult), the
// summaries deeply, plus the durable store
// contents record by record, so a scheduling-dependent byte anywhere in
// the pipeline fails loudly. The reference runs with the trace cache off,
// and every level runs with it on and off: with it on, which cell
// builds a user's wait table and which read it is decided by
// scheduling. Run under -race this also exercises the
// executor's synchronization.
func TestCellParallelDeterminism(t *testing.T) {
	spec := Spec{Seed: 11, Shards: 2,
		Schemes:  resumeSchemes,  // 3
		Profiles: resumeProfiles, // x2
		Cohorts:  resumeCohorts,  // x2 = 12 cells
	}

	// Reference: sequential cells writing through a store, caches disabled
	// so every cell truly executes.
	refStore, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	ref := NewManager(Config{Runners: 1, Workers: 1,
		CacheSize: -1, CellCacheSize: -1, TraceCacheBytes: -1, Store: refStore})
	want := runSpec(t, ref, spec)
	if got := ref.CellsExecuted(); got != uint64(len(want.Cells)) {
		t.Fatalf("reference executed %d cells, want %d", got, len(want.Cells))
	}
	ref.Close()

	// parN runs on a worker budget of N tokens: at most N cells in flight.
	for _, par := range []int{2, runtime.GOMAXPROCS(0), len(want.Cells) + 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			for _, memo := range []bool{true, false} {
				t.Run(fmt.Sprintf("memo=%v", memo), func(t *testing.T) {
					cellParallelRun(t, par, memo, spec, want, refStore)
				})
			}
		})
	}
}

// cellParallelRun is one TestCellParallelDeterminism level: the spec run
// on a worker budget of par tokens, with the wait tables on or off,
// against the sequential reference's result and store.
func cellParallelRun(t *testing.T, par int, memo bool, spec Spec, want *Result, refStore *store.Store) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := Config{Runners: 1, Workers: par,
		CacheSize: -1, CellCacheSize: -1, Store: st}
	if !memo {
		cfg.TraceCacheBytes = -1
	}
	m := NewManager(cfg)
	defer m.Close()
	got := runSpec(t, m, spec)
	if n := m.CellsExecuted(); n != uint64(len(want.Cells)) {
		t.Fatalf("executed %d cells, want %d", n, len(want.Cells))
	}
	assertSameResult(t, want, got)
	assertSameSummaries(t, want, got)
	if tables := m.TraceCacheStats().ReplayPasses; (tables > 0) != memo {
		t.Fatalf("memo=%v but %d wait tables were built", memo, tables)
	}
	// The store must hold the same records the sequential run wrote: same
	// keys, same bytes — completion-order writes are invisible.
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
			t.Fatalf("cell %s store record differs from sequential run", c.Key)
		}
	}
}

// TestConcurrentCellsSharedTiers drives two overlapping grids through two
// concurrent runners over one shared store and cell cache: their common
// cells race through store.Put and the cell-cache put from different cell
// goroutines. Same-key writes are idempotent upserts of byte-identical
// records, so both jobs must still match a quiet reference manager byte
// for byte — and under -race this is the executor/store/cache contention
// test.
func TestConcurrentCellsSharedTiers(t *testing.T) {
	base := Spec{Seed: 5, Shards: 2,
		Schemes:  resumeSchemes[:2],
		Profiles: resumeProfiles,
		Cohorts:  resumeCohorts[:1],
	}
	super := base
	super.Schemes = resumeSchemes // superset: shares base's 4 cells, adds 2

	ref := NewManager(Config{Runners: 1, Workers: 2})
	wantBase := runSpec(t, ref, base)
	wantSuper := runSpec(t, ref, super)
	ref.Close()

	for trial := 0; trial < 3; trial++ {
		st, err := store.Open(store.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(Config{Runners: 2, Workers: 2, CacheSize: -1, Store: st})
		j1, err := m.Submit(base)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := m.Submit(super)
		if err != nil {
			t.Fatal(err)
		}
		<-j1.Done()
		<-j2.Done()
		if err := j1.Err(); err != nil {
			t.Fatal(err)
		}
		if err := j2.Err(); err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, wantBase, j1.Result())
		assertSameResult(t, wantSuper, j2.Result())
		m.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCellsInFlightSettles pins the health gauge's resting state: after
// every submitted job finishes, no cell goroutines remain in flight.
func TestCellsInFlightSettles(t *testing.T) {
	m := NewManager(Config{Runners: 2, Workers: 2, CacheSize: -1, CellCacheSize: -1})
	defer m.Close()
	spec := Spec{Seed: 2, Shards: 2,
		Schemes:  resumeSchemes[:2],
		Profiles: resumeProfiles[:1],
		Cohorts:  resumeCohorts[:1],
	}
	for i := 0; i < 2; i++ {
		runSpec(t, m, spec)
	}
	if n := m.CellsInFlight(); n != 0 {
		t.Fatalf("cells in flight after completion = %d, want 0", n)
	}
}
