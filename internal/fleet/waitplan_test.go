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

// The wait tables: a grid's WaitPlan replayed once per retained slab and
// read by every job of the plan. The memo tests drive TraceCache.table
// with stub builds; the job tests drive runJob and Run over real slabs and
// compare every byte with jobs that replay themselves.

// slabUnder fills key with a small fixed slab in cache c.
func slabUnder(t *testing.T, c *TraceCache, key string) {
	t.Helper()
	if _, err := c.Slab(key, func() trace.Source { return cacheTestTrace(0).Source() }); err != nil {
		t.Fatal(err)
	}
}

// ruleJ is the data energy a stub table answers r with: no replay could
// produce it.
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

// stubTable answers every rule of sets with ruleJ, under its profile's
// name.
func stubTable(sets []sim.WaitSet) *waitTable {
	t := &waitTable{sets: sets, res: make([][]sim.Result, len(sets))}
	for g, s := range sets {
		t.res[g] = make([]sim.Result, len(s.Rules))
		for i, r := range s.Rules {
			t.res[g][i] = sim.Result{Profile: s.Prof.Name, Breakdown: energy.Breakdown{DataJ: ruleJ(r)}}
		}
	}
	return t
}

// testPlan is a plan of the constant waits ws on prof.
func testPlan(prof power.Profile, ws ...time.Duration) *WaitPlan {
	return NewWaitPlan([]sim.WaitSet{{Prof: prof, Rules: consts(ws...)}}, nil, nil)
}

// registrySchemes resolves demote policy names through the default
// registry.
func registrySchemes(t *testing.T, names ...string) []Scheme {
	t.Helper()
	var out []Scheme
	for _, name := range names {
		rs, err := ResolveScheme(policy.Default(), SchemeSpec{Policy: policy.Spec{Name: name}})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs.Scheme)
	}
	return out
}

// The schemes of waitJobs, in order.
const (
	jobFixed1s = iota
	jobFixed4500ms
	jobFixedHour
	jobStatusQuo
	jobMakeIdle
	jobOracle
	jobIAT
)

// waitJobs is a cohort's jobs under the wait-rule schemes a grid would
// sweep (fixed tails below, at and above the tail, the deployed timers,
// the Oracle and the fitted 95% IAT timer) and MakeIdle, each job
// carrying the plan of the axis on every profile of profs (prof's alone
// when there are none), as a planned grid's jobs do.
func waitJobs(t *testing.T, users int, prof power.Profile, opts *sim.Options, profs ...power.Profile) []Job {
	t.Helper()
	var schemes []Scheme
	for _, w := range []time.Duration{time.Second, 4500 * time.Millisecond, time.Hour} {
		label := (&policy.FixedTail{Wait: w}).Name()
		schemes = append(schemes, Scheme{Name: label, PolicyKey: label,
			Demote: func(trace.Trace, power.Profile) (policy.DemotePolicy, error) {
				return &policy.FixedTail{Wait: w, Label: label}, nil
			}})
	}
	schemes = append(schemes, registrySchemes(t, "statusquo", "makeidle", "oracle", "95iat")...)
	if len(profs) == 0 {
		profs = []power.Profile{prof}
	}
	var sets []sim.WaitSet
	for _, p := range profs {
		sets = append(sets, sim.WaitSet{Prof: p, Rules: []sim.Wait{{D: policy.Never}, {D: time.Second},
			{D: 4500 * time.Millisecond}, {D: time.Hour}, {Oracle: true, D: energy.Threshold(&p)}}})
	}
	iat := schemes[jobIAT]
	plan := NewWaitPlan(sets, []FitWait{{Key: iat.DemoteFit, Demote: iat.Demote}}, opts)
	c := testCohort(users)
	c.CacheKeyBase = "wait-test"
	c.Opts = opts
	jobs := c.Jobs(prof, schemes)
	for i := range jobs {
		jobs[i].Plan = plan
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

// assertSameOutcomes requires got to match want job for job: Results
// DeepEqual, Policy and Profile names included, and equal baselines.
func assertSameOutcomes(t *testing.T, jobs []Job, want, got []Outcome) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(want[i].Result, got[i].Result) || want[i].Baseline != got[i].Baseline {
			t.Fatalf("job %d (%s, %s) differs:\nwant: %+v %+v\ngot:  %+v %+v", i, jobs[i].Profile.Name, jobs[i].Scheme,
				want[i].Result, want[i].Baseline, got[i].Result, got[i].Baseline)
		}
	}
}

// newWorker is a fresh worker state.
func newWorker() *workerState {
	return &workerState{engine: sim.NewEngine(), policies: map[policyCacheKey]cachedPolicies{}}
}

// TestReplayMemoSingleFlight pins the table memo's key and its single
// flight: concurrent lookups of one key wait for one build, two plans
// with equal contents are one key (two submissions of one spec share
// their tables), and plans that differ in a rule, a profile, a fitted half
// or the options are separate keys.
func TestReplayMemoSingleFlight(t *testing.T) {
	base := testPlan(power.Verizon3G, policy.Never, time.Second)
	iat := registrySchemes(t, "95iat")[0]
	for _, c := range []struct {
		name   string
		other  *WaitPlan
		builds int64
	}{
		{"same-plan", base, 1},
		{"equal-plan", testPlan(power.Verizon3G, policy.Never, time.Hour+time.Second, time.Second), 1},
		{"other-rule", testPlan(power.Verizon3G, policy.Never, 2*time.Second), 2},
		{"other-profile", testPlan(power.VerizonLTE, policy.Never, time.Second), 2},
		{"fitted-half", NewWaitPlan([]sim.WaitSet{{Prof: power.Verizon3G, Rules: consts(policy.Never, time.Second)}},
			[]FitWait{{Key: iat.DemoteFit, Demote: iat.Demote}}, nil), 2},
		{"other-options", NewWaitPlan([]sim.WaitSet{{Prof: power.Verizon3G, Rules: consts(policy.Never, time.Second)}},
			nil, &sim.Options{BurstGap: 2 * time.Second}), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := NewTraceCache(1 << 20)
			slabUnder(t, tc, "k")
			var builds atomic.Int64
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			build := func(p *WaitPlan) func() (*waitTable, error) {
				return func() (*waitTable, error) {
					builds.Add(1)
					once.Do(func() { close(entered) })
					<-release
					return stubTable(p.Sets), nil
				}
			}
			const callers = 16
			var wg sync.WaitGroup
			wg.Add(callers)
			for i := 0; i < callers; i++ {
				p := base
				if i%2 == 1 {
					p = c.other
				}
				go func() {
					defer wg.Done()
					tab, err := tc.table("k", p, build(p))
					rule := p.Sets[0].Rules[1]
					if r := tab.result(&p.Sets[0].Prof, rule); err != nil || r == nil || r.Breakdown.DataJ != ruleJ(rule) {
						t.Errorf("lookup of %+v: %+v, %v", rule, r, err)
					}
				}()
				if i == 0 {
					<-entered // the first build is in flight before the rest ask
				}
			}
			close(release)
			wg.Wait()
			if n := builds.Load(); n != c.builds {
				t.Fatalf("%d builds, want %d", n, c.builds)
			}
			if st := tc.Stats(); st.ReplayPasses != uint64(c.builds) {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// TestReplayMemoErrorNotMemoized: a failed build reaches the lookup that
// ran it and the lookups waiting on it, and memoizes nothing, so the next
// lookup builds again. A waiter that arrives only after the failure
// builds (and here fails) on its own, which the build count allows for.
func TestReplayMemoErrorNotMemoized(t *testing.T) {
	plan := testPlan(power.Verizon3G, policy.Never)
	boom := errors.New("synthetic replay failure")
	for _, waiters := range []int{0, 3} {
		tc := NewTraceCache(1 << 20)
		slabUnder(t, tc, "k")
		entered, release := make(chan struct{}), make(chan struct{})
		errs := make(chan error, waiters+1)
		go func() {
			_, err := tc.table("k", plan, func() (*waitTable, error) {
				close(entered)
				<-release
				return nil, boom
			})
			errs <- err
		}()
		<-entered
		var late atomic.Uint64
		for i := 0; i < waiters; i++ {
			go func() {
				_, err := tc.table("k", plan, func() (*waitTable, error) { late.Add(1); return nil, boom })
				errs <- err
			}()
		}
		time.Sleep(10 * time.Millisecond) // let the waiters find the build in flight
		close(release)
		for i := 0; i <= waiters; i++ {
			if err := <-errs; !errors.Is(err, boom) {
				t.Fatalf("waiters=%d: %v, want the build's error", waiters, err)
			}
		}
		tab, err := tc.table("k", plan, func() (*waitTable, error) { return stubTable(plan.Sets), nil })
		if err != nil || tab == nil {
			t.Fatalf("waiters=%d: retry: %v, %v", waiters, tab, err)
		}
		if st := tc.Stats(); st.ReplayPasses != 2+late.Load() {
			t.Fatalf("waiters=%d: %d builds, want 2 beyond %d late ones", waiters, st.ReplayPasses, late.Load())
		}
	}
}

// TestBaselineMemoErrorNotMemoized: a job whose plan's table fails to
// build fails with that error, every time it runs, and the same job under
// a plan that builds runs.
func TestBaselineMemoErrorNotMemoized(t *testing.T) {
	broken := power.TMobile3G
	broken.T1MW = 0
	job := waitJobs(t, 1, power.Verizon3G, nil)[jobStatusQuo]
	good := job.Plan
	// A literal plan skips NewWaitPlan's validation: its pass fails.
	job.Plan = &WaitPlan{Key: "broken", Sets: []sim.WaitSet{{Prof: broken, Rules: consts(time.Second)}}}
	tc := NewTraceCache(1 << 20)
	ws := newWorker()
	for i := 0; i < 2; i++ {
		if _, err := runJob(&job, 0, ws, tc, false); err == nil || !errors.Is(err, power.ErrBadPower) {
			t.Fatalf("run %d: %v, want the table's profile error", i, err)
		}
	}
	job.Plan = good
	if _, err := runJob(&job, 0, ws, tc, false); err != nil {
		t.Fatal(err)
	}
	if st := tc.Stats(); st.ReplayPasses != 3 {
		t.Fatalf("%d builds, want 3 (the failures are not memoized)", st.ReplayPasses)
	}
}

// TestReplayMemoLivesWithSlab: with no cache, no key, a key never
// generated, a slab over budget or a slab dropped since, a lookup gets no
// table and builds nothing; a retained slab builds its table once, and a
// regenerated slab builds it again.
func TestReplayMemoLivesWithSlab(t *testing.T) {
	plan := testPlan(power.Verizon3G, policy.Never)
	var builds int
	build := func() (*waitTable, error) { builds++; return stubTable(plan.Sets), nil }
	small := NewTraceCache(4)
	slabUnder(t, small, "big")
	dropped := NewTraceCache(1 << 20)
	slabUnder(t, dropped, "k")
	dropped.AdvanceEpoch()
	dropped.AdvanceEpoch() // "k" was touched only in epoch 0: dropped
	for _, c := range []struct {
		name string
		tc   *TraceCache
		key  string
	}{{"no-cache", nil, "k"}, {"no-key", small, ""}, {"never-generated", small, "never"},
		{"over-budget", small, "big"}, {"dropped", dropped, "k"}} {
		if tab, err := c.tc.table(c.key, plan, build); tab != nil || err != nil || builds != 0 {
			t.Fatalf("%s: %v, %v after %d builds", c.name, tab, err, builds)
		}
		if st := c.tc.Stats(); st.ReplayPasses != 0 {
			t.Fatalf("%s: %+v", c.name, st)
		}
	}

	slabUnder(t, dropped, "k")
	for i := 0; i < 2; i++ {
		if tab, err := dropped.table("k", plan, build); tab == nil || err != nil {
			t.Fatalf("retained: %v, %v", tab, err)
		}
	}
	dropped.AdvanceEpoch()
	dropped.AdvanceEpoch()
	slabUnder(t, dropped, "k")
	dropped.table("k", plan, build)
	if st := dropped.Stats(); builds != 2 || st.ReplayPasses != 2 {
		t.Fatalf("%d builds (want 2: one per slab lifetime), stats %+v", builds, st)
	}
}

// TestBaselineMemoLivesWithSlab: jobs whose slabs the cache does not
// retain replay their own baselines and build no table, and match an
// uncached run.
func TestBaselineMemoLivesWithSlab(t *testing.T) {
	jobs := waitJobs(t, 2, power.Verizon3G, nil)
	want := collectResults(t, jobs, nil)
	small := NewTraceCache(1)
	assertSameOutcomes(t, jobs, want, collectResults(t, jobs, small))
	if st := small.Stats(); st.ReplayPasses != 0 || st.Entries != 0 || st.FitMisses != 0 {
		t.Fatalf("unretained slabs memoized: %+v", st)
	}
}

// TestBaselineMemoSingleFlight: concurrent jobs of every profile of one
// plan, led in turn by each kind of job — a baseline-only MakeIdle job, a
// constant wait, the Oracle and the fitted 95% IAT timer — build one table
// and one fit per user between them, and every baseline matches the
// job's own replay.
func TestBaselineMemoSingleFlight(t *testing.T) {
	profs := []power.Profile{power.Verizon3G, power.VerizonLTE}
	for _, lead := range []int{jobMakeIdle, jobFixed1s, jobOracle, jobIAT} {
		var jobs []Job
		for _, prof := range profs {
			pj := waitJobs(t, 1, prof, nil, profs...)
			jobs = append(jobs, pj[lead])
			jobs = append(jobs, slices.Delete(pj, lead, lead+1)...)
		}
		for i := range jobs {
			jobs[i].Plan = jobs[0].Plan
		}
		want := collectResults(t, jobs, nil)
		tc := NewTraceCache(1 << 22)
		got, err := Run(jobs, Options{Workers: 4, Shards: len(jobs), TraceCache: tc}, Collect())
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			if got[i].Baseline != want[i].Baseline {
				t.Fatalf("%s leading: job %d (%s) baseline %+v, want %+v", jobs[0].Scheme, i, jobs[i].Scheme, got[i].Baseline, want[i].Baseline)
			}
		}
		if st := tc.Stats(); st.ReplayPasses != 1 || st.FitMisses != 1 {
			t.Fatalf("%s leading: want one table and one fit: %+v", jobs[0].Scheme, st)
		}
	}
}

// TestBaselineMemoMatchesReplay: a fleet run whose baselines come from
// the tables folds exactly the summary of a run that replays every
// baseline, with one table per user.
func TestBaselineMemoMatchesReplay(t *testing.T) {
	const users = 3
	jobs := waitJobs(t, users, power.Verizon3G, nil)
	want, err := RunSummary(jobs, Options{Workers: 2, Shards: 4}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTraceCache(1 << 22)
	got, err := RunSummary(jobs, Options{Workers: 2, Shards: 4, TraceCache: tc}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("baselines from the tables changed the summary")
	}
	if st := tc.Stats(); st.ReplayPasses != users {
		t.Fatalf("want %d tables: %+v", users, st)
	}
}

// TestReplayMemoMatchesReplay: every job of a wait-rule grid served
// through its table — fresh Results under a retaining accumulator — is
// DeepEqual to its own engine replay, Policy and Profile names included,
// with one pass per user; a Transient summary run matches too.
func TestReplayMemoMatchesReplay(t *testing.T) {
	const users = 3
	for _, prof := range []power.Profile{power.Verizon3G, power.TMobile3G} {
		jobs := waitJobs(t, users, prof, nil)
		tc := NewTraceCache(1 << 22)
		assertSameOutcomes(t, jobs, collectResults(t, jobs, nil), collectResults(t, jobs, tc))
		// Every scheme but MakeIdle reads its table, the Oracle and the
		// fitted timer too.
		if st := tc.Stats(); st.ReplayPasses != users {
			t.Fatalf("%s: %+v", prof.Name, st)
		}

		wantSum, err := RunSummary(jobs, Options{Workers: 2, Shards: 3}, SummaryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		gotSum, err := RunSummary(jobs, Options{Workers: 2, Shards: 3, TraceCache: NewTraceCache(1 << 22)}, SummaryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantSum, gotSum) {
			t.Fatalf("%s: the tables changed the summary", prof.Name)
		}
	}
}

// TestReplayMemoAcrossProfilesMatchesReplay: the jobs of two profiles
// over the same users, sharing one plan of both profiles, run through one
// pass per user and match their own engine replays, and the uncached run,
// exactly. A third profile that fails validation rides in the plan's sets
// and fails none of them.
func TestReplayMemoAcrossProfilesMatchesReplay(t *testing.T) {
	const users = 3
	broken := power.ATTHSPAPlus
	broken.T1MW = 0
	profs := []power.Profile{power.TMobile3G, power.VerizonLTE}
	var jobs []Job
	for _, prof := range profs {
		jobs = append(jobs, waitJobs(t, users, prof, nil, broken, profs[0], profs[1])...)
	}
	plan := jobs[0].Plan
	for i := range jobs {
		jobs[i].Plan = plan
	}
	tc := NewTraceCache(1 << 22)
	assertSameOutcomes(t, jobs, collectResults(t, jobs, nil), collectResults(t, jobs, tc))
	if st := tc.Stats(); st.ReplayPasses != users || st.FitMisses != users {
		t.Fatalf("want one pass and one fit per user for both profiles: %+v", st)
	}
}

// TestReplayMemoOnePassAcrossProfiles pins the plan and its table across
// profiles: NewWaitPlan clamps every set's rules to its own tail, drops
// repeats, keeps profile order and leaves out a profile that fails
// validation; the table's one pass holds every profile's rules plus the
// fitted median-gap timer's, each equal to the engine's replay of that rule alone;
// and a profile is keyed by its value, not its name, so a what-if variant
// of a planned profile finds no set and replays itself.
func TestReplayMemoOnePassAcrossProfiles(t *testing.T) {
	g3, lte := power.Verizon3G, power.VerizonLTE
	broken := power.TMobile3G
	broken.T1MW = 0
	rs, err := ResolveScheme(policy.Default(), SchemeSpec{Policy: policy.Spec{Name: "pctiat", Params: map[string]any{"q": 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	iat := rs.Scheme // its median-gap timer is below every tail
	plan := NewWaitPlan([]sim.WaitSet{
		{Prof: lte, Rules: consts(time.Second, 2*time.Second, policy.Never, time.Second, -time.Second)},
		{Prof: broken, Rules: consts(time.Second)},
		{Prof: g3, Rules: append(consts(policy.Never, time.Hour), sim.Wait{Oracle: true, D: time.Second})},
	}, []FitWait{{Key: iat.DemoteFit, Demote: iat.Demote}, {Key: iat.DemoteFit, Demote: iat.Demote}}, nil)
	want := []sim.WaitSet{
		{Prof: lte, Rules: consts(time.Second, 2*time.Second, lte.Tail(), 0)},
		{Prof: g3, Rules: append(consts(g3.Tail()), sim.Wait{Oracle: true, D: time.Second})},
	}
	if !reflect.DeepEqual(plan.Sets, want) || len(plan.Fits) != 1 {
		t.Fatalf("plan %+v with %d fits, want %+v and 1", plan.Sets, len(plan.Fits), want)
	}

	c := testCohort(1)
	c.CacheKeyBase = "across-test"
	job := c.Jobs(lte, []Scheme{MakeIdleScheme()})[0]
	job.Plan = plan
	tc := NewTraceCache(1 << 22)
	ws := newWorker()
	if _, err := runJob(&job, 0, ws, tc, false); err != nil {
		t.Fatal(err)
	}
	tab, err := tc.table(job.CacheKey, plan, func() (*waitTable, error) { return nil, errors.New("built twice") })
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(job.Source(job.Seed))
	if err != nil {
		t.Fatal(err)
	}
	fitted, _ := iat.Demote(tr, lte)
	fr, _ := sim.WaitOf(fitted)
	for g, s := range plan.Sets {
		rules := append(slices.Clone(s.Rules), fr.Clamped(s.Prof.Tail()))
		if !slices.Equal(tab.sets[g].Rules, rules) {
			t.Fatalf("%s: table rules %v, want %v", s.Prof.Name, tab.sets[g].Rules, rules)
		}
		for _, r := range rules {
			alone := [][]sim.Result{make([]sim.Result, 1)}
			if err := sim.NewEngine().RunWaits(tr.Source(), []sim.WaitSet{{Prof: s.Prof, Rules: []sim.Wait{r}}}, nil, alone); err != nil {
				t.Fatal(err)
			}
			if got := tab.result(&s.Prof, r); got == nil || !reflect.DeepEqual(*got, alone[0][0]) {
				t.Fatalf("%s %+v: table %+v, want %+v", s.Prof.Name, r, got, alone[0][0])
			}
		}
	}
	variant := lte
	variant.T1 = 5 * time.Second
	if got := tab.result(&variant, sim.Wait{D: time.Second}); got != nil {
		t.Fatalf("a variant of %s under its name found %+v", lte.Name, got)
	}
	if st := tc.Stats(); st.ReplayPasses != 1 || st.FitMisses != 1 {
		t.Fatalf("want one pass and one profile-free fit: %+v", st)
	}
}

// TestReplayMemoAbsentRuleReplaysItself: a job whose rule its table
// lacks, whose profile its plan lacks, whose options are not its plan's,
// or that has no plan replays itself, byte-identically to an uncached
// run; the table it does read serves only what it holds.
func TestReplayMemoAbsentRuleReplaysItself(t *testing.T) {
	const users = 2
	for _, c := range []struct {
		name   string
		plan   func(Job) *WaitPlan
		tables uint64
	}{
		{"no-plan", func(Job) *WaitPlan { return nil }, 0},
		{"rules-absent", func(j Job) *WaitPlan { return testPlan(j.Profile, policy.Never, 3*time.Second) }, users},
		{"profile-absent", func(Job) *WaitPlan { return testPlan(power.TMobile3G, time.Second) }, users},
		{"other-options", func(j Job) *WaitPlan {
			return NewWaitPlan(slices.Clone(j.Plan.Sets), j.Plan.Fits, &sim.Options{BurstGap: 3 * time.Second})
		}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			jobs := waitJobs(t, users, power.VerizonLTE, nil)
			plan := c.plan(jobs[0])
			for i := range jobs {
				jobs[i].Plan = plan
			}
			tc := NewTraceCache(1 << 22)
			assertSameOutcomes(t, jobs, collectResults(t, jobs, nil), collectResults(t, jobs, tc))
			if st := tc.Stats(); st.ReplayPasses != c.tables {
				t.Fatalf("%d tables, want %d", st.ReplayPasses, c.tables)
			}
		})
	}
}

// TestReplayMemoBypassedWhenRecording: jobs whose options ask for the
// decision log replay themselves — their Results carry the log — while
// their baselines still come from the table, which replays without logs.
func TestReplayMemoBypassedWhenRecording(t *testing.T) {
	const users = 2
	jobs := waitJobs(t, users, power.Verizon3G, &sim.Options{RecordDecisions: true})
	want := collectResults(t, jobs, nil)
	tc := NewTraceCache(1 << 22)
	got := collectResults(t, jobs, tc)
	for i := range want {
		if len(got[i].Result.Decisions) == 0 {
			t.Fatalf("job %d (%s) lost its decision log", i, jobs[i].Scheme)
		}
	}
	assertSameOutcomes(t, jobs, want, got)
	if st := tc.Stats(); st.ReplayPasses != users {
		t.Fatalf("want one baseline table per user: %+v", st)
	}
}

// TestReplayMemoWarmHitAllocs: a warm table lookup allocates nothing, and
// so does a whole warm job of every wait-rule kind — constant wait,
// StatusQuo, Oracle and fitted timer — whose baseline and replay both come
// from the table under a Transient accumulator.
func TestReplayMemoWarmHitAllocs(t *testing.T) {
	jobs := waitJobs(t, 1, power.Verizon3G, nil)
	tc := NewTraceCache(1 << 22)
	ws := workerPool.Get().(*workerState)
	defer workerPool.Put(ws)
	if _, err := runJob(&jobs[jobMakeIdle], 0, ws, tc, true); err != nil { // build the table
		t.Fatal(err)
	}
	plan := jobs[0].Plan
	if n := testing.AllocsPerRun(100, func() {
		tab, _ := tc.table(jobs[0].CacheKey, plan, nil)
		tab.result(&power.Verizon3G, sim.Wait{D: time.Second})
	}); n != 0 {
		t.Fatalf("warm table lookup allocates %v times, want 0", n)
	}
	for _, i := range []int{jobFixed1s, jobStatusQuo, jobOracle, jobIAT} {
		job := &jobs[i]
		if _, err := runJob(job, 0, ws, tc, true); err != nil { // warm the policy and fit
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := runJob(job, 0, ws, tc, true); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("warm %s job allocates %v times, want 0", job.Scheme, n)
		}
	}
}

// TestBaselineMemoWarmHitAllocs: a warm job with a baseline allocates
// exactly what the same job without one does, whether its replay comes
// from the table or not.
func TestBaselineMemoWarmHitAllocs(t *testing.T) {
	jobs := waitJobs(t, 1, power.Verizon3G, nil)
	tc := NewTraceCache(1 << 22)
	ws := workerPool.Get().(*workerState)
	defer workerPool.Put(ws)
	allocs := func(j *Job) float64 {
		if _, err := runJob(j, 0, ws, tc, true); err != nil { // warm the slab, policy and table
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := runJob(j, 0, ws, tc, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, i := range []int{jobFixed4500ms, jobMakeIdle} {
		job := jobs[i]
		bare := job
		bare.Baseline = false
		if with, without := allocs(&job), allocs(&bare); with != without {
			t.Fatalf("warm %s job allocates %v times with a baseline, %v without", job.Scheme, with, without)
		}
	}
}

// TestReplayMemoResolvesFittedRules pins the fitted halves of a table:
// its build fits a profile-free half once for every profile and any other
// half once per profile, through the fit memo, and adds each fitted rule
// to its profile's set; a half whose fit fails adds nothing, builds the
// table regardless, and fails only its own job.
func TestReplayMemoResolvesFittedRules(t *testing.T) {
	profs := []power.Profile{power.Verizon3G, power.VerizonLTE, power.TMobile3G}
	iat := registrySchemes(t, "95iat")[0]
	boom := errors.New("synthetic fit failure")
	failing := iat
	failing.DemoteFit = FitKey{Spec: "failing", ProfileFree: true}
	failing.Demote = func(trace.Trace, power.Profile) (policy.DemotePolicy, error) { return nil, boom }
	perProfile := iat
	perProfile.DemoteFit.ProfileFree = false
	for _, c := range []struct {
		name  string
		fit   Scheme
		fits  uint64
		added bool
	}{
		{"profile-free", iat, 1, true},
		{"per-profile", perProfile, uint64(len(profs)), true},
		{"fit-fails", failing, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sets := make([]sim.WaitSet, len(profs))
			for g, p := range profs {
				sets[g] = sim.WaitSet{Prof: p, Rules: []sim.Wait{{Oracle: true, D: time.Second}}}
			}
			plan := NewWaitPlan(sets, []FitWait{{Key: c.fit.DemoteFit, Demote: c.fit.Demote}}, nil)
			co := testCohort(1)
			co.CacheKeyBase = "fitted-test"
			jobs := co.Jobs(profs[1], []Scheme{StatusQuoScheme(), c.fit})
			tc := NewTraceCache(1 << 22)
			ws := newWorker()
			for i := range jobs {
				jobs[i].Plan = plan
			}
			if _, err := runJob(&jobs[0], 0, ws, tc, false); err != nil {
				t.Fatal(err)
			}
			if st := tc.Stats(); st.ReplayPasses != 1 || st.FitMisses != c.fits {
				t.Fatalf("want one table and %d fits: %+v", c.fits, st)
			}
			tab, _ := tc.table(jobs[0].CacheKey, plan, nil)
			for g, s := range tab.sets {
				if n := len(s.Rules); (n == 2) != c.added {
					t.Fatalf("%s: table rules %v", s.Prof.Name, s.Rules)
				}
				if c.added && tab.result(&profs[g], s.Rules[1]) == nil {
					t.Fatalf("%s: fitted rule not served", s.Prof.Name)
				}
			}
			_, err := runJob(&jobs[1], 1, ws, tc, false)
			if c.added != (err == nil) || !c.added && !errors.Is(err, boom) {
				t.Fatalf("fitted job: %v", err)
			}
			if st := tc.Stats(); st.ReplayPasses != 1 {
				t.Fatalf("the fitted job built a table of its own: %+v", st)
			}
		})
	}
}

// TestReplayMemoServesOracle: an Oracle job over a retained slab takes its
// replay from the table, never from an engine replay. The table is seeded
// by a stub build whose answers no replay could produce, and the job
// returns exactly those, stamped with the Oracle's name — with and
// without a Transient accumulator's worker slot.
func TestReplayMemoServesOracle(t *testing.T) {
	prof := power.VerizonLTE
	c := testCohort(1)
	c.CacheKeyBase = "oracle-test"
	job := c.Jobs(prof, registrySchemes(t, "oracle"))[0]
	rule := sim.Wait{Oracle: true, D: energy.Threshold(&prof)}
	job.Plan = NewWaitPlan([]sim.WaitSet{{Prof: prof, Rules: []sim.Wait{{D: policy.Never}, rule}}}, nil, nil)
	tc := NewTraceCache(1 << 20)
	if _, err := tc.Slab(job.CacheKey, func() trace.Source { return job.Source(job.Seed) }); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.table(job.CacheKey, job.Plan, func() (*waitTable, error) { return stubTable(job.Plan.Sets), nil }); err != nil {
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
			t.Fatalf("reuse=%v: the Oracle job did not come from the table: %+v, baseline %+v", reuse, out.Result, out.Baseline)
		}
	}
	if st := tc.Stats(); st.ReplayPasses != 1 || st.SlabDecodes != 0 {
		t.Fatalf("the Oracle job replayed the slab: %+v", st)
	}
}

// TestTraceCacheClaimDecodesOnce pins the one-decode rule of the job that
// builds a table: the worker collects the slab once for every fit of its
// job, per profile when a fit reads the profile, and replays the table's
// pass from the collected packets, whether the builder's own scheme
// fitted first (the 95iat job) or the plan's fitted halves did (a fixed
// tail whose plan fits 95iat on two profiles). The results match a plain
// engine replay, and the worker holds nothing of the slab afterwards.
func TestTraceCacheClaimDecodesOnce(t *testing.T) {
	prof := power.Verizon3G
	for _, c := range []struct {
		name string
		job  int // index into waitJobs' schemes
		two  bool
		fits uint64
	}{
		{"fixed-tail-claims-fits-per-profile", jobFixed1s, true, 2},
		{"95iat-fits-then-claims", jobIAT, false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			job := waitJobs(t, 1, prof, nil)[c.job]
			if (job.DemoteFit.Spec == "") != c.two {
				t.Fatalf("job %d is %s", c.job, job.Scheme)
			}
			if c.two {
				fits := slices.Clone(job.Plan.Fits)
				fits[0].Key.ProfileFree = false
				job.Plan = NewWaitPlan([]sim.WaitSet{job.Plan.Sets[0], {Prof: power.TMobile3G, Rules: consts(time.Second)}}, fits, nil)
			}
			tc := NewTraceCache(1 << 22)
			ws := newWorker()
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

			want, err := runJob(&job, 0, newWorker(), nil, false)
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
