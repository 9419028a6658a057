package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultShards is the shard count used when Options.Shards is unset. It is
// a fixed constant — deliberately not tied to GOMAXPROCS — so default
// aggregates are reproducible across machines with different core counts.
// 64 shards keep every worker busy on any realistic core count while
// leaving shards coarse enough that per-shard accumulator overhead is
// negligible.
const DefaultShards = 64

// ErrCanceled is returned by Run when Options.Cancel closes before every
// shard completes. Wrapped errors satisfy errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("fleet: run canceled")

// Progress counts a run's completed work. Shard counts are the unit of
// observation because the shard is the unit of scheduling and reduction.
type Progress struct {
	// DoneShards / Shards count completed vs total shards.
	DoneShards, Shards int
	// DoneJobs / TotalJobs count replays inside completed shards.
	DoneJobs, TotalJobs int
}

// Options tunes a fleet run. The zero value gives GOMAXPROCS workers and
// DefaultShards shards.
type Options struct {
	// Workers is the number of concurrent replay goroutines. <= 0 means
	// runtime.GOMAXPROCS(0). Workers = 1 degrades to a serial run with
	// identical results.
	Workers int
	// Shards is the number of aggregate partitions. <= 0 means
	// DefaultShards. More shards expose more parallelism; the shard count
	// (not the worker count) fixes the reduction grouping.
	Shards int
	// OnShard, when non-nil, is called after each shard completes
	// successfully. Calls are serialized (never concurrent) and arrive in
	// shard completion order, which varies run to run; the counts
	// themselves are monotone. The callback runs on a worker goroutine, so
	// it should be quick.
	OnShard func(Progress)
	// Cancel, when non-nil, aborts the run once closed. Cancellation is
	// observed between jobs: in-flight replays finish, no further job
	// starts, and Run returns ErrCanceled. The final aggregate is
	// discarded — a canceled run never exposes a partial total.
	Cancel <-chan struct{}
	// TraceCache, when non-nil, memoizes generated traffic (as encoded
	// byte slabs) for Source jobs that carry a CacheKey, so repeated
	// sweeps over the same cohort synthesize each user's packets once
	// instead of twice per job per cell. Safe to share across concurrent
	// runs; generation is single-flight per key.
	TraceCache *TraceCache
	// Budget, when non-nil, bounds this run's worker goroutines against a
	// shared machine-wide token pool. The run's FIRST worker spawns
	// unconditionally — the caller is assumed to hold one token on the
	// run's behalf (the cell dispatcher acquires it before launching the
	// run) — and each worker beyond the first requires a TryAcquire,
	// released when that worker exits. Acquisition failure just means
	// fewer workers; results never depend on the worker count.
	Budget TokenSource
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) shards(jobs int) int {
	s := o.Shards
	if s <= 0 {
		s = DefaultShards
	}
	if s > jobs {
		s = jobs
	}
	if s < 1 {
		s = 1
	}
	return s
}

// NumShards reports the shard count a run of n jobs uses under these
// options (the configured count clamped to the job count) — exported so
// layers that split one submission into several fleet runs can total
// progress denominators up front.
func (o Options) NumShards(n int) int { return o.shards(n) }

// Job is one replay: a packet source constructor, a carrier profile, and
// the policy pair to replay it under.
type Job struct {
	// Seed is passed to Source; it also identifies the job in reports.
	// Seeds are the caller's contract for determinism: same seed, same
	// packets.
	Seed int64
	// Source constructs the job's packet source from Seed; it is required.
	// The worker pulls packets on demand, so per-worker memory is
	// independent of trace duration. Without a trace cache the constructor
	// is invoked once per pass (the replay, plus the baseline and the fit
	// pass when those are needed), so it must be deterministic in Seed; with
	// one, every pass reads the slab it generated once per CacheKey. A
	// materialized trace adapts by returning a fresh cursor over the slice
	// (trace.Trace.Source) from every call.
	Source func(seed int64) trace.Source
	// Profile is the carrier power profile to replay against.
	Profile power.Profile
	// Scheme labels the policy pair in aggregates (e.g. "MakeIdle").
	Scheme string
	// Demote constructs the demote policy for this job; it must return a
	// fresh policy (jobs share nothing). Factories get a nil trace unless
	// DemoteFit or ActiveFit names their half.
	Demote func(tr trace.Trace, prof power.Profile) (policy.DemotePolicy, error)
	// Active constructs the batching policy; a nil factory (or a nil
	// policy from it) disables batching. Errors fail the job like Demote
	// errors do.
	Active func(tr trace.Trace, prof power.Profile) (policy.ActivePolicy, error)
	// Opts are the simulation options for both the run and its baseline.
	Opts *sim.Options
	// Baseline also replays the trace under policy.StatusQuo so the fold
	// can compute relative metrics (savings, switch ratio). The baseline
	// depends only on the packets, Profile and Opts: it is the replay
	// under the tail-clamped constant wait, so it comes from the wait table
	// of the job's Plan when Options.TraceCache retains the job's slab.
	Baseline bool
	// Plan, when non-nil, is the wait axis of the grid the job belongs to
	// (see WaitPlan), shared read-only by every job of the grid. When
	// Options.TraceCache retains the job's slab and the job's Opts are the
	// plan's, the job reads its baseline, and its own Result when its
	// demote policy is a wait rule (sim.WaitOf) with no batching half and
	// no logs asked for, from the plan's wait table over the slab, built by
	// the first job of the plan to reach it. It is purely a schedule: any
	// plan, nil included, yields the same bytes.
	Plan *WaitPlan
	// CacheKey, when non-empty, lets Options.TraceCache memoize the job's
	// packets. The key must determine the packet stream completely
	// (generator config plus Seed); Cohort.Jobs derives one from the
	// cohort's canonical encoding. Empty disables caching for this job.
	CacheKey string
	// PolicyKey, when non-empty, lets workers reuse one constructed policy
	// pair across jobs, relying on the engine's per-run policy Reset. The
	// key must determine the factories' output completely up to the trace
	// and profile (the registry's canonical spec encoding qualifies).
	// Workers reuse per (PolicyKey, Profile) the halves that are not
	// trace-fitted; fitted halves are shared through the trace cache's fit
	// memo instead. Empty constructs fresh policies per job.
	PolicyKey string
	// DemoteFit and ActiveFit name the trace-fitted halves of the job's
	// pair (see FitKey); a zero FitKey marks a half that is not fitted.
	// The worker collects one pass of the job's packets into its reusable
	// fit slice and runs the named factories against it before replaying,
	// so only the fit itself is O(trace) in memory and the replays stay
	// O(1). The factories must neither modify nor retain the trace: the
	// job's other passes over a cached slab replay it, and the worker's
	// next fit overwrites it. The fit of a slab Options.TraceCache retains
	// runs once per (half, slab) for every job sharing it. Cohort.Jobs
	// copies them from the Scheme, which ResolveScheme derives from the
	// registry.
	DemoteFit, ActiveFit FitKey
}

// FitKey names one trace-fitted half of a policy pair. Spec must
// determine the half's factory output completely up to the trace and, unless
// ProfileFree is set, the profile; the registry's canonical spec encoding
// qualifies. ProfileFree marks factories that ignore the profile, whose
// one fit per trace then serves every profile. The factory must return a
// policy that is immutable after construction (the registry's TraceFitted
// contract), because the memo hands that one value to concurrent jobs.
type FitKey struct {
	Spec        string
	ProfileFree bool
}

// Outcome hands one finished job to the fold. Result is only valid during
// the Fold call for jobs the accumulator does not retain; the standard
// aggregates copy the scalars they need and drop the rest.
type Outcome struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Job points at the submitted job (shared, read-only).
	Job *Job
	// Result is the replay outcome under the job's policy pair.
	Result *sim.Result
	// Baseline holds the StatusQuo replay's scalars when Job.Baseline is
	// set, and is zero otherwise.
	Baseline Baseline
}

// Baseline is all the fold reads of a job's StatusQuo replay: the total
// energy and the promotion count, the denominators of the savings and
// switch-ratio metrics. Holding just these two scalars is what lets every
// job of a (user, profile, options) read one baseline from a wait table.
type Baseline struct {
	TotalJ     float64
	Promotions int
}

// Accumulator reduces outcomes. New creates an empty (per-shard)
// accumulator; Fold folds one outcome into it and returns it (Fold runs
// sequentially within a shard, so no locking is needed); Merge combines two
// shard accumulators, left side first in shard order.
//
// The optional fields unlock the runtime's reuse paths; all of them may be
// left unset (Collect does) at the cost of O(shards) accumulator
// allocations per run:
//
//   - Reset empties an accumulator in place for reuse; when set, the run
//     keeps a free list of merged-out shard accumulators and allocates
//     only O(workers) of them regardless of the shard count.
//   - Clone deep-copies an accumulator such that later mutations of the
//     original never show through the copy. Required for progress
//     snapshots (runHooked), because the reuse machinery recycles shard
//     partials as soon as they merge.
//   - Transient declares that Fold never retains Outcome.Result past the
//     call; the run then reuses one Result per worker across every replay
//     instead of allocating one per job.
type Accumulator[A any] struct {
	New   func() A
	Fold  func(A, Outcome) A
	Merge func(A, A) A

	Reset     func(A) A
	Clone     func(A) A
	Transient bool
}

// workerState is the scratch one worker goroutine carries across jobs: a
// reusable engine plus a cache of constructed policies keyed by
// (Job.PolicyKey, profile). Both live across runs via workerPool, so a
// sweep of N cells allocates O(workers) engines and policy sets, not
// O(cells). The policy cache holds only halves that are not trace-fitted
// (fits are shared across workers by the trace cache's fit memo) and
// relies on the engine's contract of Resetting policies at the start of
// every run; each state is owned by exactly one goroutine at a time, so
// no locking.
type workerState struct {
	engine   *sim.Engine
	policies map[policyCacheKey]cachedPolicies

	// main is the reusable Result for scheme replays, used when the run's
	// accumulator is Transient (Fold copies what it needs and retains
	// nothing). Each replay overwrites it in place, reusing its slice
	// capacity, so a shard of N jobs allocates no Result per job.
	main sim.Result

	// bytes is the worker's reusable slab decoder: cached-trace replays
	// Reset it onto the shared slab instead of allocating a source per
	// replay. Each replay finishes before the next Reset, so one cursor
	// per worker suffices.
	bytes trace.BytesSource

	// fitTrace is the worker's reusable fit input: each fit collects the
	// job's packets into it, and the TraceFitted contract forbids a
	// fitted policy to retain or modify it, so the next fit may
	// overwrite it. fitFrom is the cached slab fitTrace holds in full,
	// nil when none: until the job ends, every other pass over that slab
	// replays fitTrace through slice instead of decoding the slab again.
	fitTrace trace.Trace
	fitFrom  []byte
	slice    trace.SliceSource

	// base is the reusable Result of baselines the job replays itself.
	base sim.Result
}

// open starts one pass over the job's packets: the cached slab through the
// worker's reusable decoder when slab is non-nil, counted in tc's
// SlabDecodes, or its packets already collected into fitTrace, otherwise
// a fresh source from the job's constructor. The codec round-trips
// exactly, so every choice yields the same packets.
func (ws *workerState) open(job *Job, slab []byte, tc *TraceCache) (trace.Source, error) {
	if slab == nil {
		return job.Source(job.Seed), nil
	}
	if sameSlab(ws.fitFrom, slab) {
		ws.slice.Reset(ws.fitTrace)
		return &ws.slice, nil
	}
	if err := ws.bytes.Reset(slab); err != nil {
		return nil, err
	}
	tc.countDecode()
	return &ws.bytes, nil
}

// sameSlab reports whether a and b are the same slab, not just equal
// bytes: a retained slab is immutable and pinned by the job replaying it,
// so its address identifies it for as long as the job runs.
func sameSlab(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// release drops what the worker holds of the job's slab once the job
// ends: its decoder's cursor and fitFrom, and the slice source's view of
// fitTrace, which a later fit may reallocate. A pooled idle worker then
// pins no slab, so an evicted one is freed; fitTrace keeps only its
// capacity's worth of copied packets.
func (ws *workerState) release() {
	ws.bytes = trace.BytesSource{}
	ws.slice.Reset(nil)
	ws.fitFrom = nil
}

// replay runs one pass of the job under the given policies on the worker's
// engine, into slot when one is given.
func (ws *workerState) replay(job *Job, slab []byte, tc *TraceCache, slot *sim.Result,
	demote policy.DemotePolicy, active policy.ActivePolicy) (*sim.Result, error) {
	src, err := ws.open(job, slab, tc)
	if err != nil {
		return nil, err
	}
	if slot == nil {
		return ws.engine.RunSource(src, job.Profile, demote, active, job.Opts)
	}
	if err := ws.engine.RunSourceInto(slot, src, job.Profile, demote, active, job.Opts); err != nil {
		return nil, err
	}
	return slot, nil
}

// baseline replays the job's StatusQuo baseline itself, into the
// worker's base slot. It reads two scalars, which per-policy logs do not
// change, so it drops any the job's options ask for.
func (ws *workerState) baseline(job *Job, slab []byte, tc *TraceCache) (Baseline, error) {
	src, err := ws.open(job, slab, tc)
	if err != nil {
		return Baseline{}, err
	}
	opts := job.Opts
	if records(opts) {
		plain := plainOpts(opts)
		opts = &plain
	}
	if err := ws.engine.RunSourceInto(&ws.base, src, job.Profile, policy.StatusQuo{}, nil, opts); err != nil {
		return Baseline{}, err
	}
	return Baseline{TotalJ: ws.base.TotalJ(), Promotions: ws.base.Promotions}, nil
}

// records reports whether opts ask the engine for per-policy logs.
func records(opts *sim.Options) bool {
	return opts != nil && (opts.RecordDecisions || opts.RecordEpisodes)
}

// policyCacheKey identifies a reusable policy pair. The profile is part of
// the key (not just its name) because factories close over profile values
// and callers may sweep parameterized profiles sharing a name.
type policyCacheKey struct {
	key  string
	prof power.Profile
}

type cachedPolicies struct {
	demote policy.DemotePolicy
	active policy.ActivePolicy
}

// maxPolicyCache bounds a worker's policy cache; beyond it the cache is
// dropped wholesale (sweeps cycle a small scheme set, so this never fires
// in practice — it only guards pathological key churn).
const maxPolicyCache = 256

var workerPool = sync.Pool{New: func() any {
	return &workerState{
		engine:   sim.NewEngine(),
		policies: map[policyCacheKey]cachedPolicies{},
	}
}}

// policyPair returns the job's constructed policy pair. The halves that
// are not trace-fitted come from the worker's cache when PolicyKey is
// set; the fitted halves named by DemoteFit/ActiveFit come from tc's fit
// memo on the job's slab, or are fitted here when tc does not retain it.
// A fit collects one pass of the packets (from slab when non-nil) into
// the worker's fit trace, shared by the pair's fitted halves and, over a
// cached slab, by the job's replays (see open).
func (ws *workerState) policyPair(job *Job, slab []byte, tc *TraceCache) (policy.DemotePolicy, policy.ActivePolicy, error) {
	fitD := job.DemoteFit.Spec != ""
	fitA := job.ActiveFit.Spec != "" && job.Active != nil
	ck := policyCacheKey{key: job.PolicyKey, prof: job.Profile}
	p, ok := ws.policies[ck]
	if !ok || ck.key == "" {
		var err error
		if p.demote, p.active, err = buildPair(job, !fitD, !fitA); err != nil {
			return nil, nil, err
		}
		if ck.key != "" {
			if len(ws.policies) >= maxPolicyCache {
				clear(ws.policies)
			}
			ws.policies[ck] = p
		}
	}
	if !fitD && !fitA {
		return p.demote, p.active, nil
	}

	var ft trace.Trace // collected by the first fitted half that misses
	fit := func(role policy.Role, fk FitKey, build func(trace.Trace) (any, error)) (any, error) {
		return tc.fit(job.CacheKey, role, fk, job.Profile, func() (any, error) {
			var err error
			if ft == nil {
				ft, err = ws.collect(job, slab, tc)
			}
			if err != nil {
				return nil, err
			}
			return build(ft)
		})
	}
	if fitD {
		v, err := fit(policy.RoleDemote, job.DemoteFit, func(tr trace.Trace) (any, error) { return job.Demote(tr, job.Profile) })
		if err != nil {
			return nil, nil, err
		}
		p.demote, _ = v.(policy.DemotePolicy)
	}
	if fitA {
		v, err := fit(policy.RoleActive, job.ActiveFit, func(tr trace.Trace) (any, error) { return job.Active(tr, job.Profile) })
		if err != nil {
			return nil, nil, err
		}
		p.active, _ = v.(policy.ActivePolicy)
	}
	return p.demote, p.active, nil
}

// collect materializes one pass of the job's packets for a fit into the
// worker's scratch trace, which the next collect of another slab
// overwrites; a collect of the slab it already holds returns it as is.
func (ws *workerState) collect(job *Job, slab []byte, tc *TraceCache) (trace.Trace, error) {
	if sameSlab(ws.fitFrom, slab) {
		return ws.fitTrace, nil
	}
	ws.fitFrom = nil
	src, err := ws.open(job, slab, tc)
	if err == nil {
		ws.fitTrace, err = trace.AppendSource(ws.fitTrace[:0], src)
		if err == nil {
			ws.fitFrom = slab
			return ws.fitTrace, nil
		}
	}
	return nil, fmt.Errorf("collecting source for fit: %w", err)
}

// buildPair runs the job's factories for the requested halves, which are
// not fitted, with a nil trace, leaving the other halves nil.
func buildPair(job *Job, demote, active bool) (d policy.DemotePolicy, a policy.ActivePolicy, err error) {
	if demote {
		if d, err = job.Demote(nil, job.Profile); err != nil {
			return nil, nil, err
		}
	}
	if active && job.Active != nil {
		if a, err = job.Active(nil, job.Profile); err != nil {
			return nil, nil, err
		}
	}
	return d, a, nil
}

// Run executes every job across the worker pool and returns the merged
// accumulator. It fails on the first job error (reported in job order).
func Run[A any](jobs []Job, opts Options, acc Accumulator[A]) (A, error) {
	return runHooked(jobs, opts, acc, nil)
}

// runHooked is Run plus an optional per-shard hook receiving the progress
// counts and a snap function that builds the accumulator over every shard
// finished so far — lazily, only when called. Hooks require acc.Clone (see
// the snapshot determinism argument below); hooks and Options.OnShard are
// serialized under one lock, and snap is safe to call from any goroutine,
// during the run or after it returns — including synchronously from the
// hook itself. The hook runs on a worker goroutine; keep it quick.
//
// Reduction strategy: shard partials merge EAGERLY, in shard index order,
// into a single prefix accumulator (created up front by acc.New). A shard
// finishing out of order parks in a pending map until every earlier shard
// has merged. The op sequence — New, ⊕s0, ⊕s1, … ⊕sN — is exactly the
// end-of-run loop the sequential reduction performed, so the final
// accumulator is bit-identical; but merged-out partials can now be recycled
// (acc.Reset) onto a free list, making accumulator allocations O(workers),
// not O(shards).
//
// Snapshots stay deterministic under reuse: snap clones the prefix (built
// from shards 0..k in index order) and merges the still-pending shards in
// index order on top. That is the same op sequence as merging every
// completed shard in index order into a fresh accumulator, so a snapshot's
// content remains a pure function of the set of completed shards.
func runHooked[A any](jobs []Job, opts Options, acc Accumulator[A], hook func(snap func() A, p Progress)) (A, error) {
	var zero A
	for i := range jobs {
		if jobs[i].Source == nil {
			return zero, fmt.Errorf("fleet: job %d has no Source", i)
		}
		if jobs[i].Demote == nil {
			return zero, fmt.Errorf("fleet: job %d has no Demote factory", i)
		}
	}
	if len(jobs) == 0 {
		return acc.New(), nil
	}
	if hook != nil && acc.Clone == nil {
		return zero, fmt.Errorf("fleet: progress hooks require Accumulator.Clone")
	}

	nshards := opts.shards(len(jobs))
	workers := opts.workers()
	if workers > nshards {
		workers = nshards
	}

	var (
		// hookMu serializes hook/OnShard callbacks (and keeps their progress
		// counts monotone); mu guards the merge state. Lock order is always
		// hookMu → mu; snap takes only mu, so a hook that calls snap
		// synchronously cannot deadlock.
		hookMu   sync.Mutex
		mu       sync.Mutex //rrclint:lockafter hookMu
		progress = Progress{Shards: nshards, TotalJobs: len(jobs)}
		merged   = acc.New()   // the ordered prefix: New ⊕ s0 ⊕ s1 ⊕ …
		next     int           // next shard index the prefix absorbs
		pending  = map[int]A{} // completed shards beyond the prefix
		free     []A           // recycled scratch accumulators (Reset set)
		errs     = make([]error, nshards)
	)
	snap := func() A {
		mu.Lock()
		defer mu.Unlock()
		s := acc.Clone(merged)
		for i := next; i < nshards; i++ {
			if p, ok := pending[i]; ok {
				s = acc.Merge(s, p)
			}
		}
		return s
	}
	// complete parks shard s's partial, advances the prefix over every
	// in-order pending shard, and fires the callbacks with the updated
	// counts.
	complete := func(s int, a A) {
		hookMu.Lock()
		mu.Lock()
		pending[s] = a
		for {
			p, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			merged = acc.Merge(merged, p)
			if acc.Reset != nil {
				free = append(free, acc.Reset(p))
			}
			next++
		}
		lo, hi := shardRange(len(jobs), s, nshards)
		progress.DoneShards++
		progress.DoneJobs += hi - lo
		p := progress
		mu.Unlock()
		if hook != nil {
			hook(snap, p)
		}
		if opts.OnShard != nil {
			opts.OnShard(p)
		}
		hookMu.Unlock()
	}
	// scratch pops a recycled accumulator, or reports that the worker must
	// allocate a fresh one (outside the lock).
	scratch := func() (A, bool) {
		mu.Lock()
		defer mu.Unlock()
		if n := len(free); n > 0 {
			a := free[n-1]
			free = free[:n-1]
			return a, true
		}
		return zero, false
	}

	shardCh := make(chan int)
	var wg sync.WaitGroup
	worker := func(budgeted bool) {
		defer wg.Done()
		if budgeted {
			defer opts.Budget.Release()
		}
		ws := workerPool.Get().(*workerState)
		defer workerPool.Put(ws)
		for s := range shardCh {
			a, ok := scratch()
			if !ok {
				a = acc.New()
			}
			a, err := runShard(jobs, s, nshards, ws, acc, opts, a)
			if err != nil {
				mu.Lock()
				errs[s] = err
				mu.Unlock()
				continue
			}
			complete(s, a)
		}
	}
	// The first worker always runs — under a budget it is covered by the
	// token the caller holds for this run. Extras are opportunistic.
	wg.Add(1)
	go worker(false)
	for w := 1; w < workers; w++ {
		if opts.Budget != nil && !opts.Budget.TryAcquire() {
			break
		}
		wg.Add(1)
		go worker(opts.Budget != nil)
	}
	for s := 0; s < nshards; s++ {
		shardCh <- s
	}
	close(shardCh)
	wg.Wait()

	for s := 0; s < nshards; s++ {
		if errs[s] != nil {
			return zero, errs[s]
		}
	}
	return merged, nil
}

// canceled reports whether the (possibly nil) cancel channel is closed.
func canceled(c <-chan struct{}) bool {
	if c == nil {
		return false
	}
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Map runs fn(0..n-1) across the worker pool and returns the results in
// index order; the first error (by index) aborts the run. Each invocation
// gets the worker's reusable engine, so fn can replay traces without
// allocating its own. Map is the runtime's escape hatch for parallel work
// that is not a single (trace × profile × policy) replay — parameter
// sweeps, composite sub-simulations — while keeping the same deterministic
// index-ordered semantics as Run.
func Map[T any](n int, opts Options, fn func(i int, engine *sim.Engine) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	nshards := opts.shards(n)
	workers := opts.workers()
	if workers > nshards {
		workers = nshards
	}
	results := make([]T, n)
	errs := make([]error, n)
	shardCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := workerPool.Get().(*workerState)
			defer workerPool.Put(ws)
			for s := range shardCh {
				lo, hi := shardRange(n, s, nshards)
				for i := lo; i < hi; i++ {
					results[i], errs[i] = fn(i, ws.engine)
				}
			}
		}()
	}
	for s := 0; s < nshards; s++ {
		shardCh <- s
	}
	close(shardCh)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}

// Collect is an accumulator retaining every outcome, keyed by job index —
// for table-rendering experiments whose cohorts are small enough to hold.
// Fleet-scale runs should reduce with SummaryAccumulator instead.
func Collect() Accumulator[map[int]Outcome] {
	return Accumulator[map[int]Outcome]{
		New: func() map[int]Outcome { return map[int]Outcome{} },
		Fold: func(m map[int]Outcome, out Outcome) map[int]Outcome {
			m[out.Index] = out
			return m
		},
		Merge: func(a, b map[int]Outcome) map[int]Outcome {
			//rrclint:ordered map-to-map copy of distinct job indices; the result is a map, no order reaches bytes
			for k, v := range b {
				a[k] = v
			}
			return a
		},
	}
}

// shardRange returns the contiguous job range [lo, hi) of shard s: jobs
// split as evenly as possible, earlier shards one longer on remainder.
func shardRange(jobs, s, nshards int) (lo, hi int) {
	q, r := jobs/nshards, jobs%nshards
	lo = s*q + min(s, r)
	hi = lo + q
	if s < r {
		hi++
	}
	return lo, hi
}

// runShard replays the shard's jobs in order on one engine, folding each
// outcome into the caller-provided (empty) accumulator as it completes.
// Cancellation is checked before every job. Transient accumulators let the
// replays reuse the worker's Result pair instead of allocating per run.
func runShard[A any](jobs []Job, s, nshards int, ws *workerState, acc Accumulator[A], opts Options, a A) (A, error) {
	reuse := acc.Transient
	lo, hi := shardRange(len(jobs), s, nshards)
	for i := lo; i < hi; i++ {
		if canceled(opts.Cancel) {
			var zero A
			return zero, fmt.Errorf("fleet: shard %d at job %d: %w", s, i, ErrCanceled)
		}
		out, err := runJob(&jobs[i], i, ws, opts.TraceCache, reuse)
		if err != nil {
			var zero A
			return zero, fmt.Errorf("fleet: job %d (scheme %q, seed %d): %w",
				i, jobs[i].Scheme, jobs[i].Seed, err)
		}
		a = acc.Fold(a, out)
	}
	return a, nil
}

// runJob replays the job (plus its baseline) on the worker's engine. It
// makes one choice — where packets come from — and then runs the same steps
// for every job: build the policy pair, obtain the baseline, replay the
// scheme. Cacheable jobs (CacheKey set, cache provided) read the shared
// slab: the first toucher of the key streams the generator through the
// rrcstream codec into it (single-flight — concurrent cells wait rather than
// duplicate the generation), and every pass decodes zero-copy through the
// worker's cursor. The retained slab's cache entry memoizes the user's
// fitted policy halves under (spec, plus the profile when the fit reads
// it) and the wait table of the job's Plan. The baseline is the table's
// tail-clamped rule, and a job whose demote policy sim.WaitOf recognizes
// (a constant wait or the Oracle), with no batching policy and no logs
// asked for, takes its own Result from the table too, stamped with the
// policy's name exactly as the engine stamps it. Every other job, and
// every job the table does not serve, opens a fresh source per pass,
// fits and replays itself, so worker memory stays bounded by burst
// structure regardless of trace duration. The codec round-trips exactly,
// a fit is a pure function of its key and RunWaits yields each rule the
// scalars of its own replay bit for bit, so every choice is
// byte-identical. reuse (from Accumulator.Transient) routes the scheme
// replay into the worker's Result slot; the Outcome then aliases worker
// scratch and is valid only during the fold, exactly what Outcome's
// contract already says.
func runJob(job *Job, index int, ws *workerState, tc *TraceCache, reuse bool) (Outcome, error) {
	out := Outcome{Index: index, Job: job}
	var slab []byte
	if tc != nil && job.CacheKey != "" {
		var err error
		if slab, err = tc.Slab(job.CacheKey, func() trace.Source { return job.Source(job.Seed) }); err != nil {
			return out, fmt.Errorf("memoizing source: %w", err)
		}
	}
	defer ws.release()
	demote, active, err := ws.policyPair(job, slab, tc)
	if err != nil {
		return out, err
	}
	rule, ruled := sim.WaitOf(demote)
	ruled = ruled && active == nil && !records(job.Opts)
	var t *waitTable
	if job.Baseline || ruled {
		if t, err = ws.table(job, slab, tc); err != nil {
			return out, fmt.Errorf("wait table: %w", err)
		}
	}
	if job.Baseline {
		if b := t.result(&job.Profile, sim.Wait{D: policy.Never}); b != nil {
			out.Baseline = Baseline{TotalJ: b.TotalJ(), Promotions: b.Promotions}
		} else if out.Baseline, err = ws.baseline(job, slab, tc); err != nil {
			return out, fmt.Errorf("baseline: %w", err)
		}
	}
	var mainSlot *sim.Result
	if reuse {
		mainSlot = &ws.main
	}
	if r := t.result(&job.Profile, rule); ruled && r != nil {
		if mainSlot == nil {
			mainSlot = new(sim.Result)
		}
		*mainSlot = *r
		mainSlot.Policy = demote.Name()
		out.Result = mainSlot
		return out, nil
	}
	out.Result, err = ws.replay(job, slab, tc, mainSlot, demote, active)
	return out, err
}
