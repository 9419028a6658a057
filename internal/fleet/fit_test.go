package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestFitMemoSingleFlight pins the fit memo's key and its single flight:
// concurrent callers of one fitted half share one fit, a profile-free
// half is one key across profiles, and a half that reads the profile, the
// other role and another spec are separate keys.
func TestFitMemoSingleFlight(t *testing.T) {
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	var fits atomic.Int64
	want := &policy.FixedTail{Wait: time.Second}
	build := func() (any, error) {
		fits.Add(1)
		return want, nil
	}
	free := FitKey{Spec: "pctiat(q=0.95)", ProfileFree: true}
	const callers = 16
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			prof := power.Verizon3G
			if i%2 == 0 {
				prof = power.VerizonLTE
			}
			v, err := c.fit("k", policy.RoleDemote, free, prof, build)
			if err != nil || v != any(want) {
				t.Errorf("caller %d: %v, %v", i, v, err)
			}
		}(i)
	}
	start.Done()
	done.Wait()
	if n := fits.Load(); n != 1 {
		t.Fatalf("profile-free half fitted %d times across two profiles, want 1", n)
	}
	if st := c.Stats(); st.FitMisses != 1 || st.FitHits != callers-1 {
		t.Fatalf("stats after single flight: %+v", st)
	}

	reads := FitKey{Spec: "fix(burstgap=1s)"}
	c.fit("k", policy.RoleActive, reads, power.Verizon3G, build)
	c.fit("k", policy.RoleActive, reads, power.VerizonLTE, build)
	c.fit("k", policy.RoleActive, reads, power.VerizonLTE, build)
	c.fit("k", policy.RoleActive, free, power.Verizon3G, build)
	c.fit("k", policy.RoleDemote, FitKey{Spec: "pctiat(q=0.5)", ProfileFree: true}, power.Verizon3G, build)
	if n := fits.Load(); n != 5 {
		t.Fatalf("fitted %d times in all, want 5 (one per profile of fix, one per role, one per spec)", n)
	}
}

// TestFitMemoErrorNotMemoized: a failed fit reaches its caller and the
// next caller fits again.
func TestFitMemoErrorNotMemoized(t *testing.T) {
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	fk := FitKey{Spec: "s", ProfileFree: true}
	boom := errors.New("synthetic fit failure")
	if _, err := c.fit("k", policy.RoleDemote, fk, power.Verizon3G, func() (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fit's error", err)
	}
	v, err := c.fit("k", policy.RoleDemote, fk, power.Verizon3G, func() (any, error) { return 1, nil })
	if err != nil || v != any(1) {
		t.Fatalf("retry: %v, %v", v, err)
	}
	if st := c.Stats(); st.FitMisses != 2 || st.FitHits != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFitMemoLivesWithSlab: no memo without a retained slab (no cache, no
// key, a slab over budget), and a dropped slab takes its fits with it.
func TestFitMemoLivesWithSlab(t *testing.T) {
	var fits int
	build := func() (any, error) { fits++; return nil, nil }
	fk := FitKey{Spec: "s", ProfileFree: true}

	var off *TraceCache
	off.fit("k", policy.RoleDemote, fk, power.Verizon3G, build)
	small := NewTraceCache(4)
	small.fit("", policy.RoleDemote, fk, power.Verizon3G, build)
	slabUnder(t, small, "big")
	small.fit("big", policy.RoleDemote, fk, power.Verizon3G, build)
	small.fit("big", policy.RoleDemote, fk, power.Verizon3G, build)
	if fits != 4 || small.Stats().FitMisses != 0 {
		t.Fatalf("unretained slabs: %d fits (want 4), stats %+v", fits, small.Stats())
	}

	fits = 0
	c := NewTraceCache(1 << 20)
	slabUnder(t, c, "k")
	c.fit("k", policy.RoleDemote, fk, power.Verizon3G, build)
	c.AdvanceEpoch()
	c.AdvanceEpoch() // "k" was touched only in epoch 0: dropped
	slabUnder(t, c, "k")
	c.fit("k", policy.RoleDemote, fk, power.Verizon3G, build)
	c.fit("k", policy.RoleDemote, fk, power.Verizon3G, build)
	if st := c.Stats(); fits != 2 || st.FitMisses != 2 || st.FitHits != 1 {
		t.Fatalf("%d fits (want 2: one per slab lifetime), stats %+v", fits, st)
	}
}

// fitSchemes are registry schemes covering every fit shape: a
// profile-free fitted demote half alone and beside an online active half,
// a profile-reading fitted active half beside an online demote half, and
// both halves fitted.
func fitSchemes(t *testing.T) []Scheme {
	t.Helper()
	var out []Scheme
	for _, ss := range []SchemeSpec{
		{Policy: policy.Spec{Name: "95iat"}},
		{Policy: policy.Spec{Name: "pctiat", Params: map[string]any{"q": 0.5}}, Active: &policy.Spec{Name: "learn"}},
		{Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: ActiveFix}},
		{Policy: policy.Spec{Name: "95iat"}, Active: &policy.Spec{Name: ActiveFix}},
	} {
		rs, err := ResolveScheme(policy.Default(), ss)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs.Scheme)
	}
	return out
}

// fitJobs is a cached cohort's jobs under every fit shape on each profile,
// profile-major (one grid cell after another).
func fitJobs(t *testing.T, users int, profiles ...power.Profile) []Job {
	c := testCohort(users)
	c.Duration = time.Hour
	c.CacheKeyBase = "fit-test"
	var jobs []Job
	for _, prof := range profiles {
		jobs = append(jobs, c.Jobs(prof, fitSchemes(t))...)
	}
	return jobs
}

// TestFitMemoMatchesUnmemoized: fleet runs whose fits come from the memo
// fold exactly the summary — DeepEqual and byte-equal once encoded — of
// runs that fit every job, with no cache and with a cache too small to
// retain a slab, at one and at four workers. The memoized run fits each
// profile-free half once per user and every other half once per (user,
// profile).
func TestFitMemoMatchesUnmemoized(t *testing.T) {
	const users = 3
	profiles := []power.Profile{power.Verizon3G, power.VerizonLTE}
	jobs := fitJobs(t, users, profiles...)
	want, err := RunSummary(jobs, Options{Workers: 1, Shards: 4}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := EncodeSummary(want)
	for _, workers := range []int{1, 4} {
		for _, budget := range []int64{1, 1 << 24} {
			t.Run(fmt.Sprintf("workers%d-budget%d", workers, budget), func(t *testing.T) {
				tc := NewTraceCache(budget)
				got, err := RunSummary(jobs, Options{Workers: workers, Shards: 4, TraceCache: tc}, SummaryConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) || !bytes.Equal(wantBytes, EncodeSummary(got)) {
					t.Fatal("memoized fits changed the summary")
				}
				st := tc.Stats()
				if budget == 1 {
					if st.FitMisses != 0 || st.FitHits != 0 {
						t.Fatalf("unretained slabs memoized fits: %+v", st)
					}
					return
				}
				// Per user: 95iat and pctiat(q=0.5) once each; fix once per
				// profile (two schemes share it); 95iat again beside fix.
				p := uint64(len(profiles))
				misses := uint64(users) * (2 + p)
				if st.FitMisses != misses || st.FitHits != uint64(len(jobs))+uint64(users*len(profiles))-misses {
					t.Fatalf("want %d fits and the rest reused: %+v", misses, st)
				}
			})
		}
	}
}

// TestFitMemoSharesOnePolicy: every job of a user gets the one policy the
// memo fitted — for a profile-free half across profiles — and the
// factory runs once per memo key, not once per job.
func TestFitMemoSharesOnePolicy(t *testing.T) {
	var fits atomic.Int64
	scheme := func(profileFree bool) Scheme {
		return Scheme{Name: "fitted", PolicyKey: "fitted", FitTrace: true,
			DemoteFit: FitKey{Spec: "fitted", ProfileFree: profileFree},
			Demote: func(tr trace.Trace, _ power.Profile) (policy.DemotePolicy, error) {
				if tr == nil {
					return nil, errors.New("fitted factory called without the trace")
				}
				fits.Add(1)
				return policy.NewPercentileIAT(tr, 0.9), nil
			}}
	}
	const users = 2
	profiles := []power.Profile{power.Verizon3G, power.VerizonLTE, power.TMobile3G}
	for _, profileFree := range []bool{true, false} {
		fits.Store(0)
		c := testCohort(users)
		c.CacheKeyBase = "share-test"
		tc := NewTraceCache(1 << 24)
		seen := map[int64]map[policy.DemotePolicy]bool{}
		ws := workerPool.Get().(*workerState)
		for _, prof := range profiles {
			for i, job := range c.Jobs(prof, []Scheme{scheme(profileFree)}) {
				tc.Slab(job.CacheKey, func() trace.Source { return job.Source(job.Seed) })
				d, _, err := ws.policyPair(&job, nil, tc)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := runJob(&job, i, ws, tc, false); err != nil {
					t.Fatal(err)
				}
				if seen[job.Seed] == nil {
					seen[job.Seed] = map[policy.DemotePolicy]bool{}
				}
				seen[job.Seed][d] = true
			}
		}
		workerPool.Put(ws)
		wantPer, wantFits := len(profiles), int64(users*len(profiles))
		if profileFree {
			wantPer, wantFits = 1, users
		}
		for seed, pols := range seen {
			if len(pols) != wantPer {
				t.Errorf("profileFree=%v: user %d saw %d distinct policies, want %d", profileFree, seed, len(pols), wantPer)
			}
		}
		if n := fits.Load(); n != wantFits {
			t.Errorf("profileFree=%v: factory ran %d times, want %d", profileFree, n, wantFits)
		}
	}
}

// TestFitScratchNotRetained: a worker collects every fit into one reusable
// trace, so a memoized fitted policy must not depend on it after the fit.
// Overwriting the scratch in place, and then fitting another user into it,
// leaves every memoized half of every fit shape as it was, and the run
// folds the same summary as one that fits every job on a fresh trace.
func TestFitScratchNotRetained(t *testing.T) {
	const users = 2
	jobs := fitJobs(t, users, power.Verizon3G)
	want, err := RunSummary(jobs, Options{Workers: 1, Shards: 1}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTraceCache(1 << 24)
	ws := &workerState{engine: sim.NewEngine(), policies: map[policyCacheKey]cachedPolicies{}}
	first := jobs[:len(jobs)/users] // the first user's jobs, one per fit shape
	type half struct {
		job *Job
		d   policy.DemotePolicy
		a   policy.ActivePolicy
		was [2]any // the policies' fields right after the fit
	}
	var halves []half
	fields := func(p any) any {
		if p == nil || reflect.ValueOf(p).IsNil() {
			return nil
		}
		return reflect.ValueOf(p).Elem().Interface()
	}
	for i := range first {
		job := &first[i]
		slab, err := tc.Slab(job.CacheKey, func() trace.Source { return job.Source(job.Seed) })
		if err != nil {
			t.Fatal(err)
		}
		d, a, err := ws.policyPair(job, slab, tc)
		if err != nil {
			t.Fatal(err)
		}
		halves = append(halves, half{job: job, d: d, a: a, was: [2]any{fields(d), fields(a)}})
	}
	if len(ws.fitTrace) == 0 {
		t.Fatal("the fits collected nothing into the worker's scratch")
	}
	for i := range ws.fitTrace {
		ws.fitTrace[i] = trace.Packet{T: time.Duration(i) * time.Hour, Dir: trace.Out, Size: 1 << 20}
	}
	other := &jobs[len(first)] // the second user's first job refits into the scratch
	slab, err := tc.Slab(other.CacheKey, func() trace.Source { return other.Source(other.Seed) })
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.policyPair(other, slab, tc); err != nil {
		t.Fatal(err)
	}
	for _, h := range halves {
		d, a, err := ws.policyPair(h.job, nil, tc)
		if err != nil {
			t.Fatal(err)
		}
		if now := [2]any{fields(d), fields(a)}; !reflect.DeepEqual(now, h.was) {
			t.Fatalf("%s: memoized halves changed after the scratch was overwritten:\nfitted: %+v\nnow:    %+v",
				h.job.Scheme, h.was, now)
		}
	}
	got, err := RunSummary(jobs, Options{Workers: 1, Shards: 1, TraceCache: tc}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("fits on the reused scratch changed the summary")
	}
}
