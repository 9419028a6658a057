package fleet

import (
	"strconv"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scheme couples a label with the policy factories that realize it. The
// factories receive the profile, and factories get a nil trace unless
// DemoteFit or ActiveFit names their half: trace-fitted baselines (95%
// IAT, MakeActive-Fix) name it so the worker materializes one fit pass
// for them (see Job.DemoteFit). Schemes whose policies learn online leave
// both zero and replay in O(1) memory.
type Scheme struct {
	Name   string
	Demote func(tr trace.Trace, prof power.Profile) (policy.DemotePolicy, error)
	Active func(tr trace.Trace, prof power.Profile) (policy.ActivePolicy, error)
	// FitTrace reports that DemoteFit or ActiveFit names a fitted half.
	FitTrace bool
	// WaitRule declares that the demote half decides by a wait rule
	// (sim.Wait) under every profile: the registry schema's WaitRule
	// capability, which the grid planner reads to build its WaitPlan.
	WaitRule bool
	// PolicyKey, when non-empty, marks the factories as pure functions of
	// (key, fit trace, profile), letting workers reuse constructed
	// policies across jobs (see Job.PolicyKey). ResolveScheme derives it
	// from the registry's canonical encoding; hand-built schemes may
	// leave it empty to always construct fresh.
	PolicyKey string
	// DemoteFit and ActiveFit name the trace-fitted halves for the fit
	// pass and the trace cache's fit memo (see Job.DemoteFit and FitKey).
	// ResolveScheme derives them from the registry's capabilities.
	DemoteFit, ActiveFit FitKey
}

// Cohort describes a synthetic multi-user population to fan out.
type Cohort struct {
	// Users is the population size. Mixes cycle, so any size reuses the
	// configured app blends.
	Users int
	// Seed roots every per-user trace seed (UserSeed spacing).
	Seed int64
	// Duration is the per-user trace length.
	Duration time.Duration
	// Diurnal wraps each user in the day/night activity mask, turning the
	// stationary mixes into day-scale load (workload.DayUser).
	Diurnal bool
	// Mixes are the user blends the population cycles through (at least
	// one; ResolveCohort takes them from the cohort registry's plan).
	Mixes []workload.User
	// SeedStride multiplies the per-user seed index (user i draws
	// UserSeed(Seed, i*SeedStride)); <= 1 keeps the historical spacing.
	SeedStride int
	// Opts are the simulation options applied to every job (burst gap,
	// recording); nil gives the simulator defaults.
	Opts *sim.Options
	// CacheKeyBase, when non-empty, stamps every expanded job with a trace
	// cache key of "base|seed" so Options.TraceCache can memoize the
	// cohort's per-user traces across cells. It must determine the packet
	// stream up to the seed — the cohort's canonical encoding (users,
	// duration, mixes, diurnal, stride) qualifies; jobs.plan supplies
	// exactly that. Empty disables trace caching for the cohort.
	CacheKeyBase string

	// srcs and cacheKeys cache Prepare's precomputations. They are derived
	// from the exported fields, so they are only ever set by Prepare,
	// immediately after those fields reach their final values; mutating
	// the cohort afterwards would leave them stale.
	srcs      []func(int64) trace.Source
	cacheKeys []string
}

// prepareKeysMaxUsers bounds the populations whose per-user trace cache
// keys Prepare materializes: small cohorts are exactly the ones whose jobs
// the trace cache can actually hold, and huge ones must not pin O(users)
// strings for the grid's lifetime.
const prepareKeysMaxUsers = 1 << 16

// Prepare precomputes what every Jobs expansion of this cohort rebuilds —
// the per-mix source constructors, and (for populations small enough to
// cache) the per-user trace cache keys. A grid expands one cell per
// scheme × profile over the same cohort, so cells copying the Cohort value
// share the work. Call it once the other fields are final; Jobs works
// without it, building everything locally.
func (c *Cohort) Prepare() {
	c.srcs = c.buildSources()
	c.cacheKeys = nil
	if c.CacheKeyBase != "" && c.Users <= prepareKeysMaxUsers {
		stride := c.SeedStride
		if stride < 1 {
			stride = 1
		}
		c.cacheKeys = make([]string, c.Users)
		for i := range c.cacheKeys {
			seed := UserSeed(c.Seed, i*stride)
			c.cacheKeys[i] = c.CacheKeyBase + "|" + strconv.FormatInt(seed, 10)
		}
	}
}

// buildSources constructs one trace-source builder per mix the population
// actually uses: users cycle through the mixes, so with fewer users than
// mixes only the first Users blends are ever drawn.
func (c *Cohort) buildSources() []func(int64) trace.Source {
	n := len(c.Mixes)
	if c.Users > 0 && c.Users < n {
		n = c.Users
	}
	srcs := make([]func(int64) trace.Source, n)
	for i := 0; i < n; i++ {
		u := c.Mixes[i]
		if c.Diurnal {
			u = workload.DayUser(u)
		}
		d := c.Duration
		srcs[i] = func(seed int64) trace.Source { return u.Stream(seed, d) }
	}
	return srcs
}

// Jobs expands the cohort into one job per (user, scheme) against the
// profile. Jobs carry source constructors, not traces: each worker streams
// its user's packets from the seed on demand, replays them once per
// scheme, and never holds the trace — per-worker memory is independent of
// c.Duration (except under trace-fitted schemes, which materialize one
// pass to fit, once per user and fitted half while the trace cache retains
// the user's slab). Baselines are enabled so summaries get relative metrics.
func (c Cohort) Jobs(prof power.Profile, schemes []Scheme) []Job {
	stride := c.SeedStride
	if stride < 1 {
		stride = 1
	}
	// Users cycle through a small mix set, so the diurnal wrap and the
	// source constructor are built once per mix, not once per user: users
	// sharing a mix differ only by their seed, which the constructor takes
	// as an argument. Prepared cohorts amortize even that across cells.
	srcs := c.srcs
	if srcs == nil {
		srcs = c.buildSources()
	}
	jobs := make([]Job, 0, c.Users*len(schemes))
	for i := 0; i < c.Users; i++ {
		src := srcs[i%len(srcs)]
		seed := UserSeed(c.Seed, i*stride)
		cacheKey := ""
		if i < len(c.cacheKeys) {
			cacheKey = c.cacheKeys[i]
		} else if c.CacheKeyBase != "" {
			cacheKey = c.CacheKeyBase + "|" + strconv.FormatInt(seed, 10)
		}
		for _, s := range schemes {
			jobs = append(jobs, Job{
				Seed:      seed,
				Source:    src,
				Profile:   prof,
				Scheme:    s.Name,
				Demote:    s.Demote,
				Active:    s.Active,
				Opts:      c.Opts,
				Baseline:  true,
				CacheKey:  cacheKey,
				PolicyKey: s.PolicyKey,
				DemoteFit: s.DemoteFit,
				ActiveFit: s.ActiveFit,
			})
		}
	}
	return jobs
}

// MakeIdleScheme is the paper's §4 policy as a fleet scheme.
func MakeIdleScheme() Scheme {
	return Scheme{
		Name: "MakeIdle",
		Demote: func(_ trace.Trace, prof power.Profile) (policy.DemotePolicy, error) {
			return policy.NewMakeIdle(prof)
		},
	}
}

// CombinedScheme is MakeIdle plus the learning MakeActive (§5.2).
func CombinedScheme() Scheme {
	s := MakeIdleScheme()
	s.Name = "MakeIdle+MakeActive Learn"
	s.Active = func(trace.Trace, power.Profile) (policy.ActivePolicy, error) {
		return policy.NewLearnedDelay(), nil
	}
	return s
}

// StatusQuoScheme replays the deployed timer behaviour (useful when a run
// wants absolute baseline aggregates alongside the relative ones).
func StatusQuoScheme() Scheme {
	return Scheme{
		Name: "StatusQuo",
		Demote: func(trace.Trace, power.Profile) (policy.DemotePolicy, error) {
			return policy.StatusQuo{}, nil
		},
	}
}
