package fleet

import (
	"errors"
	"reflect"
	"slices"
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

// passLog is a stub wait pass that records what it was asked to replay
// and answers each wait with its own length as data energy.
type passLog struct {
	mu    sync.Mutex
	calls [][]time.Duration // [w, more...] per call
}

func (p *passLog) pass(w time.Duration, more []time.Duration) ([]sim.Result, error) {
	waits := append([]time.Duration{w}, more...)
	p.mu.Lock()
	p.calls = append(p.calls, waits)
	p.mu.Unlock()
	res := make([]sim.Result, len(waits))
	for i, w := range waits {
		res[i] = sim.Result{Breakdown: energy.Breakdown{DataJ: float64(w)}}
	}
	return res, nil
}

func (p *passLog) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.calls)
}

// TestReplayMemoClaimsBatch pins the claim rule: a miss replays its own
// wait and every unclaimed wait of its batch in one pass, clamped to
// [0, tail] and deduplicated; later lookups of any claimed wait, the
// baseline's included, are hits; a wait claimed before is not replayed
// again; and another profile or other options are separate replays.
func TestReplayMemoClaimsBatch(t *testing.T) {
	prof := power.Verizon3G
	tail := prof.Tail()
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	var p passLog
	check := func(r sim.Result, err error, want time.Duration) {
		t.Helper()
		if err != nil || r.Breakdown.DataJ != float64(want) {
			t.Fatalf("got %v (%v), want the replay of %v", r.Breakdown.DataJ, err, want)
		}
	}

	r, err := c.constWait("k", prof, nil, 2*time.Second,
		[]time.Duration{policy.Never, time.Second, 2 * time.Second, time.Second, tail + 5*time.Second, -time.Second}, p.pass)
	check(r, err, 2*time.Second)
	if want := [][]time.Duration{{2 * time.Second, tail, time.Second, 0}}; !reflect.DeepEqual(p.calls, want) {
		t.Fatalf("passes %v, want %v", p.calls, want)
	}
	b, err := c.baseline("k", prof, &sim.Options{}, nil, p.pass)
	if err != nil || b.TotalJ != float64(tail) {
		t.Fatalf("baseline %+v (%v), want the tail's replay", b, err)
	}
	for _, w := range []time.Duration{time.Second, 0, -3 * time.Second, tail + time.Hour} {
		r, err := c.constWait("k", prof, nil, w, nil, p.pass)
		check(r, err, clampWait(w, tail))
	}
	if p.count() != 1 {
		t.Fatalf("claimed waits replayed again: %v", p.calls)
	}

	r, err = c.constWait("k", prof, nil, 3*time.Second, []time.Duration{time.Second, 4 * time.Second, policy.Never}, p.pass)
	check(r, err, 3*time.Second)
	if got := p.calls[1]; !slices.Equal(got, []time.Duration{3 * time.Second, 4 * time.Second}) {
		t.Fatalf("second pass replayed %v, want only the unclaimed 3s and 4s", got)
	}
	c.constWait("k", power.VerizonLTE, nil, 3*time.Second, nil, p.pass)
	c.constWait("k", prof, &sim.Options{BurstGap: 2 * time.Second}, 3*time.Second, nil, p.pass)
	if p.count() != 4 {
		t.Fatalf("another profile and other options replayed %d passes in all, want 4", p.count())
	}
	want := TraceCacheStats{Hits: 0, Misses: 1, Entries: 1, Bytes: c.Stats().Bytes,
		BaselineHits: 1, ReplayHits: 4, ReplayMisses: 4, ReplayPasses: 4}
	if st := c.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestReplayMemoSingleFlight: once a pass has claimed a batch, concurrent
// lookups of every wait in it wait for that one pass, however many they
// are and whichever wait each asks for.
func TestReplayMemoSingleFlight(t *testing.T) {
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	waits := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, policy.Never}
	var passes atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	var p passLog
	blocking := func(w time.Duration, more []time.Duration) ([]sim.Result, error) {
		passes.Add(1)
		close(entered)
		<-release
		return p.pass(w, more)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.constWait("k", power.VerizonLTE, nil, waits[0], waits[1:], blocking)
		done <- err
	}()
	<-entered
	const callers = 16
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			w := waits[i%len(waits)]
			r, err := c.constWait("k", power.VerizonLTE, nil, w, waits, blocking)
			if want := float64(clampWait(w, power.VerizonLTE.Tail())); err != nil || r.Breakdown.DataJ != want {
				t.Errorf("caller %d: %v (%v), want %v", i, r.Breakdown.DataJ, err, want)
			}
		}(i)
	}
	close(release)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := passes.Load(); n != 1 {
		t.Fatalf("%d passes, want 1", n)
	}
	if st := c.Stats(); st.ReplayPasses != 1 || st.ReplayMisses != 1 || st.ReplayHits != callers {
		t.Fatalf("stats after single flight: %+v", st)
	}
}

// TestReplayMemoErrorReleasesClaims: a failed pass reaches the waiters of
// every wait it claimed and memoizes none of them, so the next lookup of
// each replays again.
func TestReplayMemoErrorReleasesClaims(t *testing.T) {
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	boom := errors.New("synthetic replay failure")
	entered, release := make(chan struct{}), make(chan struct{})
	failing := func(time.Duration, []time.Duration) ([]sim.Result, error) {
		close(entered)
		<-release
		return nil, boom
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.baseline("k", power.Verizon3G, nil, []time.Duration{2 * time.Second}, failing)
		done <- err
	}()
	<-entered
	waiter := make(chan error, 1)
	go func() {
		_, err := c.constWait("k", power.Verizon3G, nil, 2*time.Second, nil, failing)
		waiter <- err
	}()
	for c.Stats().ReplayHits == 0 { // the waiter has found the claim
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("claimer: %v, want the pass's error", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter: %v, want the pass's error", err)
	}
	var p passLog
	c.constWait("k", power.Verizon3G, nil, 2*time.Second, nil, p.pass)
	c.baseline("k", power.Verizon3G, nil, nil, p.pass)
	if p.count() != 2 {
		t.Fatalf("failed claims were memoized: %d retries replayed", p.count())
	}
}

// TestReplayMemoLivesWithSlab: with no cache, no key, a key never
// generated or a slab over budget, every lookup runs its own one-wait
// pass and nothing is counted.
func TestReplayMemoLivesWithSlab(t *testing.T) {
	var p passLog
	batch := []time.Duration{time.Second, 3 * time.Second}
	var off *TraceCache
	off.constWait("k", power.Verizon3G, nil, 2*time.Second, batch, p.pass)
	small := NewTraceCache(4)
	small.constWait("", power.Verizon3G, nil, 2*time.Second, batch, p.pass)
	small.constWait("never", power.Verizon3G, nil, 2*time.Second, batch, p.pass)
	slabUnder(t, small, "big")
	small.constWait("big", power.Verizon3G, nil, 2*time.Second, batch, p.pass)
	small.baseline("big", power.Verizon3G, nil, batch, p.pass)
	want := [][]time.Duration{{2 * time.Second}, {2 * time.Second}, {2 * time.Second}, {2 * time.Second}, {power.Verizon3G.Tail()}}
	if !reflect.DeepEqual(p.calls, want) {
		t.Fatalf("unretained lookups ran %v, want %v", p.calls, want)
	}
	if st := small.Stats(); st.ReplayPasses != 0 || st.ReplayHits != 0 || st.ReplayMisses != 0 || st.BaselineMisses != 0 {
		t.Fatalf("unretained slab memoized: %+v", st)
	}
}

// waitJobs is a cohort's jobs under the constant-wait schemes a grid
// would sweep (fixed tails below, at and above the tail, the deployed
// timers), each job carrying the axis's waits as a planned grid's do.
func waitJobs(users int, prof power.Profile, opts *sim.Options) []Job {
	fixed := func(wait time.Duration) Scheme {
		name := "fixed-" + wait.String()
		return Scheme{Name: name, PolicyKey: name,
			Demote: func(trace.Trace, power.Profile) (policy.DemotePolicy, error) {
				return &policy.FixedTail{Wait: wait}, nil
			}}
	}
	waits := []time.Duration{time.Second, 4500 * time.Millisecond, prof.Tail()}
	c := testCohort(users)
	c.CacheKeyBase = "wait-test"
	c.Opts = opts
	jobs := c.Jobs(prof, []Scheme{fixed(time.Second), fixed(4500 * time.Millisecond), fixed(time.Hour), StatusQuoScheme(), MakeIdleScheme()})
	for i := range jobs {
		jobs[i].Waits = waits
	}
	return jobs
}

// collectResults runs jobs under Collect, whose accumulator keeps every
// Result, and returns the Outcomes in job order.
func collectResults(t *testing.T, jobs []Job, tc *TraceCache) []Outcome {
	t.Helper()
	got, err := Run(jobs, Options{Workers: 2, Shards: 3, TraceCache: tc}, Collect())
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]Outcome, len(jobs))
	for i := range jobs {
		outs[i] = got[i]
	}
	return outs
}

// TestReplayMemoMatchesReplay: every job of a constant-wait grid served
// through the memo — fresh Results under a retaining accumulator — is
// DeepEqual to its own engine replay, Policy and Profile names included,
// with one pass per user; a Transient summary run matches too.
func TestReplayMemoMatchesReplay(t *testing.T) {
	const users = 3
	for _, prof := range []power.Profile{power.Verizon3G, power.TMobile3G} {
		jobs := waitJobs(users, prof, nil)
		want := collectResults(t, jobs, nil)
		tc := NewTraceCache(1 << 20)
		got := collectResults(t, jobs, tc)
		for i := range want {
			if !reflect.DeepEqual(want[i].Result, got[i].Result) || want[i].Baseline != got[i].Baseline {
				t.Fatalf("%s job %d (%s): memo result differs:\nreplay: %+v\nmemo:   %+v",
					prof.Name, i, jobs[i].Scheme, want[i].Result, got[i].Result)
			}
		}
		// The baseline claims the batch; four of the five schemes then hit.
		if st := tc.Stats(); st.ReplayPasses != users || st.ReplayMisses != 0 || st.ReplayHits != 4*users {
			t.Fatalf("%s: %+v", prof.Name, st)
		}

		wantSum, err := RunSummary(jobs, Options{Workers: 2, Shards: 3}, SummaryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		gotSum, err := RunSummary(jobs, Options{Workers: 2, Shards: 3, TraceCache: NewTraceCache(1 << 20)}, SummaryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantSum, gotSum) {
			t.Fatalf("%s: memoized constant waits changed the summary", prof.Name)
		}
	}
}

// TestReplayMemoBypassedWhenRecording: jobs whose options ask for the
// decision log replay themselves — their Results carry the log — while
// their baselines still come from the memo, and claim nothing else.
func TestReplayMemoBypassedWhenRecording(t *testing.T) {
	const users = 2
	jobs := waitJobs(users, power.Verizon3G, &sim.Options{RecordDecisions: true})
	want := collectResults(t, jobs, nil)
	tc := NewTraceCache(1 << 20)
	got := collectResults(t, jobs, tc)
	for i := range want {
		if len(got[i].Result.Decisions) == 0 {
			t.Fatalf("job %d (%s) lost its decision log", i, jobs[i].Scheme)
		}
		if !reflect.DeepEqual(want[i].Result, got[i].Result) || want[i].Baseline != got[i].Baseline {
			t.Fatalf("job %d (%s): result differs from the unmemoized run", i, jobs[i].Scheme)
		}
	}
	st := tc.Stats()
	if st.ReplayHits != 0 || st.ReplayMisses != 0 {
		t.Fatalf("a recording job's replay went through the memo: %+v", st)
	}
	if st.BaselineMisses != users || st.ReplayPasses != users {
		t.Fatalf("want one baseline-only pass per user: %+v", st)
	}
}

// TestReplayMemoWarmHitAllocs: a warm constant-wait memo hit allocates
// nothing, at the memo and across a whole job whose baseline and replay
// both hit under a Transient accumulator.
func TestReplayMemoWarmHitAllocs(t *testing.T) {
	tc := NewTraceCache(1 << 20)
	slabUnder(t, tc, "k")
	var p passLog
	batch := []time.Duration{time.Second}
	tc.constWait("k", power.Verizon3G, nil, 2*time.Second, batch, p.pass)
	if n := testing.AllocsPerRun(100, func() { tc.constWait("k", power.Verizon3G, nil, time.Second, batch, p.pass) }); n != 0 {
		t.Fatalf("warm memo hit allocates %v times, want 0", n)
	}

	job := waitJobs(1, power.Verizon3G, nil)[3] // the StatusQuo scheme: its name is a constant
	ws := workerPool.Get().(*workerState)
	defer workerPool.Put(ws)
	if _, err := runJob(&job, 0, ws, tc, true); err != nil { // warm the slab, policy and memo
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := runJob(&job, 0, ws, tc, true); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm memoized job allocates %v times, want 0", n)
	}
}
