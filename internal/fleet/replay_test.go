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
// and answers each rule with its duration as data energy (negated for
// Oracle rules) and the name of the profile it was asked under.
type passLog struct {
	mu     sync.Mutex
	calls  [][]sim.Wait    // the lookup's own profile's rules per call
	others [][]sim.WaitSet // the other profiles' sets per call
}

func (p *passLog) pass(sets []sim.WaitSet) ([][]sim.Result, error) {
	p.mu.Lock()
	p.calls = append(p.calls, slices.Clone(sets[0].Rules))
	p.others = append(p.others, slices.Clone(sets[1:]))
	p.mu.Unlock()
	res := make([][]sim.Result, len(sets))
	for g, s := range sets {
		res[g] = make([]sim.Result, len(s.Rules))
		for i, r := range s.Rules {
			res[g][i] = sim.Result{Profile: s.Prof.Name, Breakdown: energy.Breakdown{DataJ: ruleJ(r)}}
		}
	}
	return res, nil
}

// ruleJ is the data energy passLog answers r with.
func ruleJ(r sim.Wait) float64 {
	if r.Oracle {
		return -float64(r.D)
	}
	return float64(r.D)
}

// consts are constant-wait rules.
func consts(ws ...time.Duration) []sim.Wait {
	rules := make([]sim.Wait, len(ws))
	for i, w := range ws {
		rules[i] = sim.Wait{D: w}
	}
	return rules
}

// constWait looks the constant wait w up in c, offering the constant
// waits of batch.
func constWait(c *TraceCache, key string, prof power.Profile, opts *sim.Options, w time.Duration, batch []time.Duration, pass waitPass) (sim.Result, error) {
	return c.ruleReplay(key, prof, opts, sim.Wait{D: w}, waitBatch{rules: consts(batch...)}, pass)
}

// clampWait is the clamped constant wait w.
func clampWait(w, tail time.Duration) time.Duration { return sim.Wait{D: w}.Clamped(tail).D }

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

	r, err := constWait(c, "k", prof, nil, 2*time.Second,
		[]time.Duration{policy.Never, time.Second, 2 * time.Second, time.Second, tail + 5*time.Second, -time.Second}, p.pass)
	check(r, err, 2*time.Second)
	if want := [][]sim.Wait{consts(2*time.Second, tail, time.Second, 0)}; !reflect.DeepEqual(p.calls, want) {
		t.Fatalf("passes %v, want %v", p.calls, want)
	}
	b, err := c.baseline("k", prof, &sim.Options{}, waitBatch{}, p.pass)
	if err != nil || b.TotalJ != float64(tail) {
		t.Fatalf("baseline %+v (%v), want the tail's replay", b, err)
	}
	for _, w := range []time.Duration{time.Second, 0, -3 * time.Second, tail + time.Hour} {
		r, err := constWait(c, "k", prof, nil, w, nil, p.pass)
		check(r, err, clampWait(w, tail))
	}
	if p.count() != 1 {
		t.Fatalf("claimed waits replayed again: %v", p.calls)
	}

	r, err = constWait(c, "k", prof, nil, 3*time.Second, []time.Duration{time.Second, 4 * time.Second, policy.Never}, p.pass)
	check(r, err, 3*time.Second)
	if got := p.calls[1]; !slices.Equal(got, consts(3*time.Second, 4*time.Second)) {
		t.Fatalf("second pass replayed %v, want only the unclaimed 3s and 4s", got)
	}
	constWait(c, "k", power.VerizonLTE, nil, 3*time.Second, nil, p.pass)
	constWait(c, "k", prof, &sim.Options{BurstGap: 2 * time.Second}, 3*time.Second, nil, p.pass)
	if p.count() != 4 {
		t.Fatalf("another profile and other options replayed %d passes in all, want 4", p.count())
	}
	want := TraceCacheStats{Hits: 0, Misses: 1, Entries: 1, Bytes: c.Stats().Bytes,
		BaselineHits: 1, ReplayHits: 4, ReplayMisses: 4, ReplayPasses: 4}
	if st := c.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestReplayMemoClaimsAcrossProfiles pins the claim rule across
// profiles: a miss claims the unclaimed rules of every profile in its
// batch under the same options, its own profile's first (its own rule
// leading) and each other profile's as one more wait set in batch order;
// lookups under the other profiles are then hits that return their own
// profile's Result, and other options are a separate pass. A profile
// that fails validation is left out of another profile's pass; its own
// lookup claims its rules.
func TestReplayMemoClaimsAcrossProfiles(t *testing.T) {
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	var p passLog
	g3, lte, tm := power.Verizon3G, power.VerizonLTE, power.TMobile3G
	batch := waitBatch{sets: []sim.WaitSet{
		{Prof: lte, Rules: consts(time.Second, 2*time.Second, policy.Never)},
		{Prof: g3, Rules: consts(time.Second, policy.Never, 2*time.Second)},
		{Prof: tm, Rules: consts(policy.Never)},
		{Prof: lte, Rules: consts(3*time.Second, time.Second)},
	}}
	r, err := c.ruleReplay("k", g3, nil, sim.Wait{D: 2 * time.Second}, batch, p.pass)
	if err != nil || r.Breakdown.DataJ != float64(2*time.Second) {
		t.Fatalf("got %+v (%v), want the 2s replay", r, err)
	}
	wantOthers := []sim.WaitSet{
		{Prof: lte, Rules: consts(time.Second, 2*time.Second, lte.Tail(), 3*time.Second)},
		{Prof: tm, Rules: consts(tm.Tail())},
	}
	if p.count() != 1 || !slices.Equal(p.calls[0], consts(2*time.Second, time.Second, g3.Tail())) ||
		!reflect.DeepEqual(p.others[0], wantOthers) {
		t.Fatalf("pass %v + %v, want %v + %v", p.calls, p.others, consts(2*time.Second, time.Second, g3.Tail()), wantOthers)
	}
	for _, c2 := range []struct {
		prof power.Profile
		w    time.Duration
	}{{lte, time.Second}, {lte, 3 * time.Second}, {lte, policy.Never}, {tm, tm.Tail()}, {g3, time.Second}} {
		r, err := constWait(c, "k", c2.prof, nil, c2.w, nil, p.pass)
		if want := float64(clampWait(c2.w, c2.prof.Tail())); err != nil || r.Breakdown.DataJ != want || r.Profile != c2.prof.Name {
			t.Fatalf("%s %v: got %+v (%v), want %v from its own profile's set", c2.prof.Name, c2.w, r, err, want)
		}
	}
	if b, err := c.baseline("k", tm, &sim.Options{}, waitBatch{}, p.pass); err != nil || b.TotalJ != float64(tm.Tail()) {
		t.Fatalf("%s baseline %+v (%v), want its tail's replay", tm.Name, b, err)
	}
	if p.count() != 1 {
		t.Fatalf("claimed rules replayed again: %v", p.calls)
	}
	constWait(c, "k", lte, &sim.Options{BurstGap: time.Second}, time.Second, nil, p.pass)
	if p.count() != 2 {
		t.Fatalf("other options shared the pass: %v", p.calls)
	}
	if st := c.Stats(); st.ReplayPasses != 2 || st.ReplayMisses != 2 || st.ReplayHits != 5 || st.BaselineHits != 1 {
		t.Fatalf("stats %+v", st)
	}

	// A profile is keyed by its value, not its name: a what-if variant
	// of LTE under the same name is a wait set of its own.
	variant := lte
	variant.T1 = 5 * time.Second
	constWait(c, "k", lte, &sim.Options{BurstGap: 2 * time.Second}, time.Second, nil, p.pass)
	_, err = c.ruleReplay("k", variant, &sim.Options{BurstGap: 2 * time.Second}, sim.Wait{D: time.Second},
		waitBatch{sets: []sim.WaitSet{{Prof: lte, Rules: consts(2 * time.Second)}}}, p.pass)
	want := []sim.WaitSet{{Prof: lte, Rules: consts(2 * time.Second)}}
	if err != nil || p.count() != 4 || !slices.Equal(p.calls[3], consts(time.Second)) || !reflect.DeepEqual(p.others[3], want) {
		t.Fatalf("the variant's pass replayed %v + %v (%v), want its own 1s + %v", p.calls[3], p.others[3], err, want)
	}

	broken := tm
	broken.T1MW = 0
	opts := &sim.Options{BurstGap: 3 * time.Second}
	_, err = c.ruleReplay("k", g3, opts, sim.Wait{D: time.Second}, waitBatch{sets: []sim.WaitSet{
		{Prof: broken, Rules: consts(time.Second)}, {Prof: lte, Rules: consts(time.Second)}}}, p.pass)
	want = []sim.WaitSet{{Prof: lte, Rules: consts(time.Second)}}
	if err != nil || p.count() != 5 || !reflect.DeepEqual(p.others[4], want) {
		t.Fatalf("a pass with an invalid profile in its batch replayed %v + %v (%v), want its own 1s + %v", p.calls[4], p.others[4], err, want)
	}
	constWait(c, "k", broken, opts, time.Second, nil, p.pass)
	if p.count() != 6 || !slices.Equal(p.calls[5], consts(time.Second)) {
		t.Fatalf("the invalid profile's own lookup found its rule claimed: %d passes", p.count())
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
	blocking := func(sets []sim.WaitSet) ([][]sim.Result, error) {
		passes.Add(1)
		close(entered)
		<-release
		return p.pass(sets)
	}
	done := make(chan error, 1)
	go func() {
		_, err := constWait(c, "k", power.VerizonLTE, nil, waits[0], waits[1:], blocking)
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
			r, err := constWait(c, "k", power.VerizonLTE, nil, w, waits, blocking)
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
	failing := func([]sim.WaitSet) ([][]sim.Result, error) {
		close(entered)
		<-release
		return nil, boom
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.baseline("k", power.Verizon3G, nil, waitBatch{rules: consts(2 * time.Second)}, failing)
		done <- err
	}()
	<-entered
	waiter := make(chan error, 1)
	go func() {
		_, err := constWait(c, "k", power.Verizon3G, nil, 2*time.Second, nil, failing)
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
	constWait(c, "k", power.Verizon3G, nil, 2*time.Second, nil, p.pass)
	c.baseline("k", power.Verizon3G, nil, waitBatch{}, p.pass)
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
	constWait(off, "k", power.Verizon3G, nil, 2*time.Second, batch, p.pass)
	small := NewTraceCache(4)
	constWait(small, "", power.Verizon3G, nil, 2*time.Second, batch, p.pass)
	constWait(small, "never", power.Verizon3G, nil, 2*time.Second, batch, p.pass)
	slabUnder(t, small, "big")
	constWait(small, "big", power.Verizon3G, nil, 2*time.Second, batch, p.pass)
	small.baseline("big", power.Verizon3G, nil, waitBatch{rules: consts(batch...)}, p.pass)
	want := [][]sim.Wait{consts(2 * time.Second), consts(2 * time.Second), consts(2 * time.Second), consts(2 * time.Second),
		consts(power.Verizon3G.Tail())}
	if !reflect.DeepEqual(p.calls, want) {
		t.Fatalf("unretained lookups ran %v, want %v", p.calls, want)
	}
	if st := small.Stats(); st.ReplayPasses != 0 || st.ReplayHits != 0 || st.ReplayMisses != 0 || st.BaselineMisses != 0 {
		t.Fatalf("unretained slab memoized: %+v", st)
	}
}

// waitJobs is a cohort's jobs under the wait-rule schemes a grid would
// sweep (fixed tails below, at and above the tail, the deployed timers,
// the Oracle and the fitted 95% IAT timer) and MakeIdle, each job
// carrying the axis's rules and fitted halves as a planned grid's do.
func waitJobs(t *testing.T, users int, prof power.Profile, opts *sim.Options) []Job {
	t.Helper()
	fixed := func(wait time.Duration) Scheme {
		name := "fixed-" + wait.String()
		return Scheme{Name: name, PolicyKey: name,
			Demote: func(trace.Trace, power.Profile) (policy.DemotePolicy, error) {
				return &policy.FixedTail{Wait: wait}, nil
			}}
	}
	schemes := []Scheme{fixed(time.Second), fixed(4500 * time.Millisecond), fixed(time.Hour), StatusQuoScheme(), MakeIdleScheme()}
	for _, name := range []string{"oracle", "95iat"} {
		rs, err := ResolveScheme(policy.Default(), SchemeSpec{Policy: policy.Spec{Name: name}})
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, rs.Scheme)
	}
	iat := schemes[len(schemes)-1]
	waits := []sim.Wait{{D: time.Second}, {D: 4500 * time.Millisecond}, {D: prof.Tail()},
		{Oracle: true, D: energy.Threshold(&prof)}}
	fitted := []FitWait{{Key: iat.DemoteFit, Demote: iat.Demote}}
	c := testCohort(users)
	c.CacheKeyBase = "wait-test"
	c.Opts = opts
	jobs := c.Jobs(prof, schemes)
	for i := range jobs {
		jobs[i].Waits, jobs[i].FitWaits = []sim.WaitSet{{Prof: prof, Rules: waits}}, fitted
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

// TestReplayMemoMatchesReplay: every job of a wait-rule grid served
// through the memo — fresh Results under a retaining accumulator — is
// DeepEqual to its own engine replay, Policy and Profile names included,
// with one pass per user; a Transient summary run matches too.
func TestReplayMemoMatchesReplay(t *testing.T) {
	const users = 3
	for _, prof := range []power.Profile{power.Verizon3G, power.TMobile3G} {
		jobs := waitJobs(t, users, prof, nil)
		want := collectResults(t, jobs, nil)
		tc := NewTraceCache(1 << 20)
		got := collectResults(t, jobs, tc)
		for i := range want {
			if !reflect.DeepEqual(want[i].Result, got[i].Result) || want[i].Baseline != got[i].Baseline {
				t.Fatalf("%s job %d (%s): memo result differs:\nreplay: %+v\nmemo:   %+v",
					prof.Name, i, jobs[i].Scheme, want[i].Result, got[i].Result)
			}
		}
		// The baseline claims the batch, the fitted timer's rule included;
		// every scheme but MakeIdle then hits, the Oracle too, so no
		// rule's replay reaches the engine.
		if st := tc.Stats(); st.ReplayPasses != users || st.ReplayMisses != 0 || st.ReplayHits != 6*users {
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

// TestReplayMemoAcrossProfilesMatchesReplay: the jobs of two profiles
// over the same users, each carrying both profiles' rules as a planned
// grid's do, run through one pass per user and match their own engine
// replays, and the uncached run, exactly. A third profile that fails
// validation rides in every job's Waits and fails none of them.
func TestReplayMemoAcrossProfilesMatchesReplay(t *testing.T) {
	const users = 3
	profs := []power.Profile{power.TMobile3G, power.VerizonLTE}
	broken := power.ATTHSPAPlus
	broken.T1MW = 0
	var jobs []Job
	sets := []sim.WaitSet{{Prof: broken, Rules: consts(time.Second)}}
	for _, prof := range profs {
		pj := waitJobs(t, users, prof, nil)
		sets = append(sets, pj[0].Waits...)
		jobs = append(jobs, pj...)
	}
	for i := range jobs {
		jobs[i].Waits = sets
	}
	want := collectResults(t, jobs, nil)
	tc := NewTraceCache(1 << 20)
	got := collectResults(t, jobs, tc)
	for i := range want {
		if !reflect.DeepEqual(want[i].Result, got[i].Result) || want[i].Baseline != got[i].Baseline {
			t.Fatalf("job %d (%s, %s): memo result differs:\nreplay: %+v\nmemo:   %+v",
				i, jobs[i].Profile.Name, jobs[i].Scheme, want[i].Result, got[i].Result)
		}
	}
	if st := tc.Stats(); st.ReplayPasses != users || st.ReplayMisses != 0 || st.FitMisses != users {
		t.Fatalf("want one pass and one fit per user for both profiles: %+v", st)
	}
}

// TestReplayMemoBypassedWhenRecording: jobs whose options ask for the
// decision log replay themselves — their Results carry the log — while
// their baselines still come from the memo, and claim nothing else.
func TestReplayMemoBypassedWhenRecording(t *testing.T) {
	const users = 2
	jobs := waitJobs(t, users, power.Verizon3G, &sim.Options{RecordDecisions: true})
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
	batch := waitBatch{rules: consts(time.Second)}
	tc.ruleReplay("k", power.Verizon3G, nil, sim.Wait{D: 2 * time.Second}, batch, p.pass)
	if n := testing.AllocsPerRun(100, func() { tc.ruleReplay("k", power.Verizon3G, nil, sim.Wait{D: time.Second}, batch, p.pass) }); n != 0 {
		t.Fatalf("warm memo hit allocates %v times, want 0", n)
	}

	job := waitJobs(t, 1, power.Verizon3G, nil)[3] // the StatusQuo scheme: its name is a constant
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

// TestReplayMemoResolvesFittedRules pins the claim rule for fitted
// halves: the claimer resolves its batch's fitted rules once, outside the
// lock, and claims them into its own pass, so concurrent lookups of a
// fitted rule — arriving while it resolves or after — never run a pass
// of their own. A lookup of a rule neither list names runs one pass
// after the resolution, however many ask for it.
func TestReplayMemoResolvesFittedRules(t *testing.T) {
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	prof := power.Verizon3G
	fitted := sim.Wait{D: 1700 * time.Millisecond}
	other := sim.Wait{D: 2500 * time.Millisecond}
	var resolutions atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	batch := waitBatch{rules: consts(time.Second), fitted: func() []sim.WaitSet {
		if resolutions.Add(1) == 1 {
			close(entered)
		}
		<-release
		return []sim.WaitSet{{Prof: prof, Rules: []sim.Wait{fitted, {D: time.Second}, {Oracle: true, D: time.Second}}}}
	}}
	var p passLog
	done := make(chan error, 1)
	go func() {
		_, err := c.baseline("k", prof, nil, batch, p.pass)
		done <- err
	}()
	<-entered

	const callers = 8
	var started, finished sync.WaitGroup
	started.Add(callers)
	finished.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer finished.Done()
			r := fitted
			if i%2 == 1 {
				r = other
			}
			started.Done()
			got, err := c.ruleReplay("k", prof, nil, r, batch, p.pass)
			if err != nil || got.Breakdown.DataJ != ruleJ(r) {
				t.Errorf("caller %d: %v (%v), want the replay of %+v", i, got.Breakdown.DataJ, err, r)
			}
		}(i)
	}
	started.Wait()
	close(release)
	finished.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tail := prof.Tail()
	want := []sim.Wait{{D: tail}, {D: time.Second}, fitted, {Oracle: true, D: time.Second}}
	if len(p.calls) == 2 && len(p.calls[0]) == 1 { // the two passes run in either order
		p.calls[0], p.calls[1] = p.calls[1], p.calls[0]
	}
	if p.count() != 2 || !slices.Equal(p.calls[0], want) || !slices.Equal(p.calls[1], []sim.Wait{other}) {
		t.Fatalf("passes %v, want %v and %v alone", p.calls, want, other)
	}
	// The claimer resolved once; the pass that claimed the other rule
	// found every fitted rule claimed but still looked them up.
	if n := resolutions.Load(); n != 2 {
		t.Fatalf("%d resolutions, want 2 (one per pass)", n)
	}
	if st := c.Stats(); st.ReplayPasses != 2 || st.BaselineMisses != 1 || st.ReplayMisses != 1 || st.ReplayHits != callers-1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestReplayMemoServesOracle: an Oracle job over a retained slab takes its
// replay from the wait-rule memo, never from an engine replay. The memo
// is seeded by a stub pass whose answers no replay could produce, and the
// job returns exactly those, stamped with the Oracle's name — with and
// without a Transient accumulator's worker slot.
func TestReplayMemoServesOracle(t *testing.T) {
	prof := power.VerizonLTE
	rs, err := ResolveScheme(policy.Default(), SchemeSpec{Policy: policy.Spec{Name: "oracle"}})
	if err != nil {
		t.Fatal(err)
	}
	oracle := rs.Scheme
	c := testCohort(1)
	c.CacheKeyBase = "oracle-test"
	job := c.Jobs(prof, []Scheme{oracle})[0]
	tc := NewTraceCache(1 << 20)
	if _, err := tc.Slab(job.CacheKey, func() trace.Source { return job.Source(job.Seed) }); err != nil {
		t.Fatal(err)
	}
	rule := sim.Wait{Oracle: true, D: energy.Threshold(&prof)}
	var p passLog
	if _, err := tc.ruleReplay(job.CacheKey, prof, job.Opts, rule, waitBatch{rules: consts(prof.Tail())}, p.pass); err != nil {
		t.Fatal(err)
	}
	ws := workerPool.Get().(*workerState)
	defer workerPool.Put(ws)
	for _, reuse := range []bool{false, true} {
		out, err := runJob(&job, 0, ws, tc, reuse)
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Breakdown.DataJ != ruleJ(rule) || out.Result.Policy != "Oracle" || out.Baseline.TotalJ != float64(prof.Tail()) {
			t.Fatalf("reuse=%v: the Oracle job did not come from the memo: %+v, baseline %+v", reuse, out.Result, out.Baseline)
		}
	}
	if st := tc.Stats(); st.ReplayPasses != 1 || st.ReplayHits != 2 || st.BaselineHits != 2 {
		t.Fatalf("the Oracle job ran a pass of its own: %+v", st)
	}
}

// TestTraceCacheClaimDecodesOnce pins the one-decode rule of a claiming
// miss: the worker collects the slab once for every fit of its job, per
// profile when a fit reads the profile, and replays the wait-rule pass
// from the collected packets, whether the claimer's own scheme fitted
// first (the 95iat job) or the batch's fitted rules did (a fixed tail
// whose batch fits 95iat on two profiles). The results match a plain
// engine replay, and the worker holds nothing of the slab afterwards.
func TestTraceCacheClaimDecodesOnce(t *testing.T) {
	prof := power.Verizon3G
	for _, c := range []struct {
		name string
		job  int // index into waitJobs' schemes
		two  bool
		fits uint64
	}{
		{"fixed-tail-claims-fits-per-profile", 0, true, 2},
		{"95iat-fits-then-claims", 6, false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			job := waitJobs(t, 1, prof, nil)[c.job]
			if job.FitTrace == c.two {
				t.Fatalf("job %d is %s", c.job, job.Scheme)
			}
			if c.two {
				job.Waits = []sim.WaitSet{job.Waits[0], {Prof: power.TMobile3G, Rules: consts(time.Second)}}
				job.FitWaits = slices.Clone(job.FitWaits)
				job.FitWaits[0].Key.ProfileFree = false
			}
			tc := NewTraceCache(1 << 22)
			ws := &workerState{engine: sim.NewEngine(), policies: map[policyCacheKey]cachedPolicies{}}
			out, err := runJob(&job, 0, ws, tc, false)
			if err != nil {
				t.Fatal(err)
			}
			st := tc.Stats()
			if st.SlabDecodes != 1 || st.ReplayPasses != 1 || st.FitMisses != c.fits {
				t.Fatalf("want 1 decode, 1 pass and %d fits: %+v", c.fits, st)
			}
			if !reflect.DeepEqual(ws.bytes, trace.BytesSource{}) || ws.fitFrom != nil || !reflect.DeepEqual(ws.slice, trace.SliceSource{}) {
				t.Fatal("the worker still references the job's slab")
			}

			fresh := &workerState{engine: sim.NewEngine(), policies: map[policyCacheKey]cachedPolicies{}}
			want, err := runJob(&job, 0, fresh, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Result, out.Result) || want.Baseline != out.Baseline {
				t.Fatalf("pass from the collected packets differs from the engine replay:\nreplay: %+v %+v\npass:   %+v %+v",
					want.Result, want.Baseline, out.Result, out.Baseline)
			}
		})
	}
}
