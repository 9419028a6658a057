package fleet

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// slabUnder fills key with a small fixed slab in cache c.
func slabUnder(t *testing.T, c *TraceCache, key string) {
	t.Helper()
	if _, err := c.Slab(key, func() trace.Source { return cacheTestTrace(0).Source() }); err != nil {
		t.Fatal(err)
	}
}

// asPass adapts a baseline stub to the wait-rule memo's pass: every rule
// of the pass gets the stub's baseline, its total as data energy.
func asPass(run func() (Baseline, error)) waitPass {
	return func(sets []sim.WaitSet) ([][]sim.Result, error) {
		b, err := run()
		if err != nil {
			return nil, err
		}
		res := make([][]sim.Result, len(sets))
		for g, s := range sets {
			res[g] = make([]sim.Result, len(s.Rules))
			for i := range res[g] {
				res[g][i] = sim.Result{Breakdown: energy.Breakdown{DataJ: b.TotalJ}, Promotions: b.Promotions}
			}
		}
		return res, nil
	}
}

// TestBaselineMemoSingleFlight pins the memo's key and its single flight:
// concurrent callers of one (profile, options) share one replay, nil and
// zero options are one key, and another profile or other options are
// separate keys.
func TestBaselineMemoSingleFlight(t *testing.T) {
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	var runs atomic.Int64
	run := asPass(func() (Baseline, error) {
		runs.Add(1)
		return Baseline{TotalJ: 12.5, Promotions: 3}, nil
	})
	const callers = 16
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			opts := &sim.Options{}
			if i%2 == 0 {
				opts = nil
			}
			b, err := c.baseline("k", power.Verizon3G, opts, waitBatch{}, run)
			if err != nil || b != (Baseline{TotalJ: 12.5, Promotions: 3}) {
				t.Errorf("caller %d: %+v, %v", i, b, err)
			}
		}(i)
	}
	start.Done()
	done.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("baseline replayed %d times, want 1", n)
	}
	if st := c.Stats(); st.BaselineMisses != 1 || st.BaselineHits != callers-1 {
		t.Fatalf("stats after single flight: %+v", st)
	}

	c.baseline("k", power.VerizonLTE, nil, waitBatch{}, run)
	c.baseline("k", power.Verizon3G, &sim.Options{BurstGap: 2 * time.Second}, waitBatch{}, run)
	if n := runs.Load(); n != 3 {
		t.Fatalf("other profile and options replayed %d times in all, want 3", n)
	}
}

// TestBaselineMemoErrorNotMemoized: a failed replay reaches its caller and
// the next caller replays again.
func TestBaselineMemoErrorNotMemoized(t *testing.T) {
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	boom := errors.New("synthetic replay failure")
	if _, err := c.baseline("k", power.Verizon3G, nil, waitBatch{}, asPass(func() (Baseline, error) {
		return Baseline{}, boom
	})); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the replay's error", err)
	}
	b, err := c.baseline("k", power.Verizon3G, nil, waitBatch{}, asPass(func() (Baseline, error) {
		return Baseline{TotalJ: 1}, nil
	}))
	if err != nil || b.TotalJ != 1 {
		t.Fatalf("retry: %+v, %v", b, err)
	}
	if st := c.Stats(); st.BaselineMisses != 2 || st.BaselineHits != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestBaselineMemoLivesWithSlab: no memo without a retained slab (no
// cache, no key, a key never generated, a slab over budget), and a
// dropped slab takes its memo with it.
func TestBaselineMemoLivesWithSlab(t *testing.T) {
	var runs int
	run := asPass(func() (Baseline, error) { runs++; return Baseline{}, nil })

	var off *TraceCache
	off.baseline("k", power.Verizon3G, nil, waitBatch{}, run)
	small := NewTraceCache(4)
	small.baseline("", power.Verizon3G, nil, waitBatch{}, run)
	small.baseline("never", power.Verizon3G, nil, waitBatch{}, run)
	slabUnder(t, small, "big")
	small.baseline("big", power.Verizon3G, nil, waitBatch{}, run)
	small.baseline("big", power.Verizon3G, nil, waitBatch{}, run)
	if runs != 5 {
		t.Fatalf("unretained baselines replayed %d times, want 5", runs)
	}
	if st := small.Stats(); st.BaselineMisses != 0 || st.BaselineHits != 0 {
		t.Fatalf("unretained slab memoized: %+v", st)
	}

	runs = 0
	c := NewTraceCache(1 << 20)
	for i := 0; i < 2; i++ {
		slabUnder(t, c, "k")
		c.baseline("k", power.Verizon3G, nil, waitBatch{}, run)
	}
	c.AdvanceEpoch()
	c.AdvanceEpoch() // "k" was touched only in epoch 0: dropped
	c.baseline("k", power.Verizon3G, nil, waitBatch{}, run)
	slabUnder(t, c, "k")
	c.baseline("k", power.Verizon3G, nil, waitBatch{}, run)
	if runs != 3 {
		t.Fatalf("replayed %d times, want 3 (one before the drop, one with no slab, one after)", runs)
	}
	if st := c.Stats(); st.BaselineMisses != 2 || st.BaselineHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// memoJobs is a cohort's jobs under two constant-wait schemes with
// reusable policies, keyed for the trace cache.
func memoJobs(users int) []Job {
	fixed := func(name string, wait time.Duration) Scheme {
		return Scheme{Name: name, PolicyKey: name,
			Demote: func(trace.Trace, power.Profile) (policy.DemotePolicy, error) {
				return &policy.FixedTail{Wait: wait}, nil
			}}
	}
	c := testCohort(users)
	c.CacheKeyBase = "memo-test"
	return c.Jobs(power.Verizon3G, []Scheme{fixed("a", 2*time.Second), fixed("b", 5*time.Second)})
}

// TestBaselineMemoMatchesReplay: a fleet run whose baselines come from
// the memo folds exactly the summary of a run that replays every
// baseline, with one replay per user.
func TestBaselineMemoMatchesReplay(t *testing.T) {
	const users = 3
	jobs := memoJobs(users)
	want, err := RunSummary(jobs, Options{Workers: 2, Shards: 4}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTraceCache(1 << 20)
	got, err := RunSummary(jobs, Options{Workers: 2, Shards: 4, TraceCache: tc}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("memoized baselines changed the summary")
	}
	if st := tc.Stats(); st.BaselineMisses != users || st.BaselineHits != users {
		t.Fatalf("want %d baseline replays and %d reuses: %+v", users, users, st)
	}
}

// TestBaselineMemoWarmHitAllocs: a baseline served from a warm memo
// allocates nothing, both at the memo and across a whole job — a warm
// job with a baseline allocates exactly what the same job without one
// does.
func TestBaselineMemoWarmHitAllocs(t *testing.T) {
	tc := NewTraceCache(1 << 20)
	slabUnder(t, tc, "k")
	run := asPass(func() (Baseline, error) { return Baseline{TotalJ: 1, Promotions: 1}, nil })
	tc.baseline("k", power.Verizon3G, nil, waitBatch{}, run)
	if n := testing.AllocsPerRun(100, func() { tc.baseline("k", power.Verizon3G, nil, waitBatch{}, run) }); n != 0 {
		t.Fatalf("warm memo hit allocates %v times, want 0", n)
	}

	job := memoJobs(1)[0]
	bare := job
	bare.Baseline = false
	ws := workerPool.Get().(*workerState)
	defer workerPool.Put(ws)
	allocs := func(j *Job) float64 {
		if _, err := runJob(j, 0, ws, tc, true); err != nil { // warm the slab, policy and memo
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := runJob(j, 0, ws, tc, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	if with, without := allocs(&job), allocs(&bare); with != without {
		t.Fatalf("warm job allocates %v times with a baseline, %v without", with, without)
	}
}
