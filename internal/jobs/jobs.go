// Package jobs is the asynchronous job layer between the HTTP service and
// the fleet runtime: a bounded queue of sweep-grid replay jobs — each a
// cross product of parameterized scheme × carrier-profile × cohort axis
// values — per-job lifecycle state (queued → running → done/failed/
// canceled), cooperative cancellation that propagates into the fleet via
// its Cancel channel, and two result caches keyed by deterministic
// identities: a job-level cache on the v4 fingerprint (seed, burst gap,
// shards, plus the canonical byte-stable encoding of every axis value on
// all three axes) and a cell-level cache on the per-cell restriction of
// the same identity, so overlapping grids reuse prior cells' work — and
// resubmitting an identical spec (however its axis values are spelled) is
// served with byte-identical rendered output.
//
// A grid executes as one fleet run per cell in a fixed order
// (cohort-major, then profile, then scheme), every cell of a cohort
// replaying the identical streamed population, which keeps each cell's
// reduction grouping equal to a single-axis job's — a grid's cell
// summaries are byte-identical to separate jobs on the same seed.
//
// Results are rendered (JSON/CSV/text) from their cells on every read, so
// a finished job retains its cells, not its rendered bytes; cache hits
// share the *Result. Because the fleet reduction is deterministic and the
// shard count is part of both keys, a cache hit returns the same bytes a
// cold rerun would have produced.
package jobs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/store"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. Queued and Running are live; the rest are
// terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrQueueFull is returned by Submit when the bounded queue has no room.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// Progress mirrors fleet.Progress with JSON field names for the API.
type Progress struct {
	DoneShards int `json:"done_shards"`
	Shards     int `json:"shards"`
	DoneJobs   int `json:"done_jobs"`
	TotalJobs  int `json:"total_jobs"`
}

// Status is a point-in-time snapshot of a job, safe to serialize.
type Status struct {
	ID          string   `json:"id"`
	State       State    `json:"state"`
	Fingerprint string   `json:"fingerprint"`
	CacheHit    bool     `json:"cache_hit"`
	Spec        Spec     `json:"spec"`
	Progress    Progress `json:"progress"`
	Error       string   `json:"error,omitempty"`
	SubmittedAt string   `json:"submitted_at,omitempty"`
	StartedAt   string   `json:"started_at,omitempty"`
	FinishedAt  string   `json:"finished_at,omitempty"`
}

// Job is one submitted simulation. All mutable state is behind mu;
// external readers use Status, Partial, Result and Done.
type Job struct {
	id          string
	spec        Spec
	fingerprint string

	cancel     chan struct{}
	cancelOnce sync.Once
	done       chan struct{}

	// cells is the Submit-time grid plan (resolved axes, cell keys,
	// progress denominators); runners execute it without re-resolving.
	cells []gridCell

	mu       sync.Mutex
	state    State
	cacheHit bool
	progress Progress
	// partialFn lazily materializes the latest partial summary; partialVer
	// advances whenever the underlying snapshot does, so Partial memoizes
	// the merge and redoes it only after new work completes.
	partialFn   func() *fleet.Summary
	partialVer  uint64
	partialMemo *fleet.Summary
	memoVer     uint64
	result      *Result
	err         error
	submitted   time.Time
	started     time.Time
	finished    time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		State:       j.state,
		Fingerprint: j.fingerprint,
		CacheHit:    j.cacheHit,
		Spec:        j.spec,
		Progress:    j.progress,
		SubmittedAt: rfc3339(j.submitted),
		StartedAt:   rfc3339(j.started),
		FinishedAt:  rfc3339(j.finished),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Partial returns the latest merged partial summary (nil before the first
// shard completes). The returned summary is an immutable snapshot. The
// merge materializes lazily on read and is memoized per snapshot version,
// so unread partials cost nothing and repeated polls of a quiet job reuse
// one merge.
func (j *Job) Partial() *fleet.Summary {
	j.mu.Lock()
	fn, ver := j.partialFn, j.partialVer
	if fn == nil {
		j.mu.Unlock()
		return nil
	}
	if ver == j.memoVer {
		memo := j.partialMemo
		j.mu.Unlock()
		return memo
	}
	j.mu.Unlock()
	sum := fn() // outside j.mu: may merge many shard accumulators
	j.mu.Lock()
	if ver > j.memoVer {
		j.memoVer, j.partialMemo = ver, sum
	}
	j.mu.Unlock()
	return sum
}

// setPartial installs a new lazy partial producer with its progress counts
// and advances the snapshot version so the next Partial re-materializes.
func (j *Job) setPartial(fn func() *fleet.Summary, p Progress) {
	j.mu.Lock()
	j.partialFn = fn
	j.partialVer++
	j.progress = p
	j.mu.Unlock()
}

// Result returns the rendered result, or nil unless the job is done.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the failure (or cancellation) error, nil while live or done.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// finish moves the job to a terminal state exactly once. It drops the
// job's plan: a runner executes its own copy, and nothing reads the plan
// after a terminal state, so a finished record in the registry does not
// pin its grid's cohorts, scheme closures, wait lists and cell keys.
func (j *Job) finish(state State, res *Result, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.cells = nil
	j.result = res
	j.err = err
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// runFleetFunc is the seam between the job layer and the fleet runtime;
// tests substitute a controllable fake to exercise the lifecycle without
// replaying real cohorts. The progress callback carries a lazy snapshot
// function (fleet.RunSummaryLazyProgress's shape), so per-shard progress
// costs nothing until somebody reads a partial.
type runFleetFunc func(fjobs []fleet.Job, opts fleet.Options, cfg fleet.SummaryConfig,
	onProgress func(snap func() *fleet.Summary, p fleet.Progress)) (*fleet.Summary, error)

// Config tunes a Manager. The zero value gives a 32-deep queue, a
// 128-entry cache, one job runner, and all-core fleet workers per job.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run (default 32).
	// Submissions beyond it fail fast with ErrQueueFull — backpressure,
	// not unbounded buffering.
	QueueDepth int
	// CacheSize bounds the fingerprint → result cache (default 128
	// entries, LRU eviction). Negative disables caching.
	CacheSize int
	// CellCacheSize bounds the cell-key → cell-result cache (default 1024
	// entries, LRU eviction; negative disables). Cells are the unit of
	// cross-job reuse: a grid overlapping an earlier grid (or an earlier
	// single-axis job) replays only its novel cells.
	CellCacheSize int
	// Runners is the number of jobs executing concurrently (default 1;
	// each job already parallelizes internally across Workers).
	Runners int
	// Workers sizes the manager-wide worker budget (<= 0 = all cores):
	// the bound on concurrent replay goroutines shared between intra-cell
	// fleet shards and inter-cell parallelism, across every runner. Each
	// in-flight cell holds one token, so a job runs at most min(Workers,
	// cells) cells at once; 1 runs them one at a time. Worker count never
	// changes results.
	Workers int
	// MaxRecords bounds the job registry (default 1024): once exceeded,
	// the oldest *terminal* jobs are forgotten (their id returns 404).
	// Live jobs are never evicted, so the registry — and with it the
	// memory pinned by retained results — cannot grow without bound on a
	// long-running daemon.
	MaxRecords int
	// Store, when non-nil, is the durable content-addressed cell store —
	// the second cache tier beneath the in-memory cell cache. Finished
	// cells are persisted to it (atomic, digest-protected writes) and
	// grid submissions diff their planned cells against it, so only the
	// frontier — cells no prior run of this or any earlier daemon ever
	// computed — executes. Store-served cells are byte-identical to cold
	// runs (the summary codec is bit-exact and rendering is
	// deterministic). The caller owns the store's lifecycle; close it
	// after Close.
	Store *store.Store
	// TraceCacheBytes budgets the shared trace cache (in bytes of
	// rrcstream-encoded slab, LRU eviction) that memoizes generated
	// cohort traffic across cells, jobs and runners, so a sweep
	// synthesizes each user's trace once — single-flight across
	// concurrent cells — instead of once per replay (default 32 MiB,
	// roughly 10M packets encoded; negative disables). Each job start
	// also drops the slabs that only the job before last touched, so jobs
	// with fresh seeds do not fill the budget with traffic nobody
	// replays; a slab a later job touches stays under the LRU budget.
	// Each retained slab also carries its user's memoized replays: every
	// wait-rule replay (the StatusQuo baseline, constant waits, Oracle
	// thresholds and fitted constant-wait timers of every profile under
	// one set of simulation options, replayed in one pass) and the fitted
	// policy halves, so a grid replays its wait rules once per (cohort,
	// user) and fits a policy once per (cohort, user), or per profile too
	// when its fit reads the profile, rather than once per cell; they
	// cost no budget and go when the slab goes. Results are
	// unchanged: the codec round-trips bit-exactly, replaying the slab is
	// byte-identical to streaming the same seed, and a memoized replay or
	// fit holds exactly what recomputing it produces.
	TraceCacheBytes int64

	// runFleet overrides the fleet call in tests; nil means the real one.
	runFleet runFleetFunc
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CellCacheSize == 0 {
		c.CellCacheSize = 1024
	}
	if c.Runners <= 0 {
		c.Runners = 1
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = 1024
	}
	if c.TraceCacheBytes == 0 {
		c.TraceCacheBytes = 32 << 20
	}
	if c.runFleet == nil {
		c.runFleet = fleet.RunSummaryLazyProgress
	}
	return c
}

// Manager owns the queue, the runners, the job registry and the result
// cache. Create with NewManager, dispose with Close.
type Manager struct {
	cfg Config
	wg  sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond // signals pending work or shutdown to runners
	// pending is the FIFO of jobs awaiting a runner. Canceled entries stay
	// until popped (and skipped), but QueueDepth admission counts only
	// still-queued jobs, so canceling frees its slot immediately.
	pending []*Job
	closed  bool
	nextID  int
	jobs    map[string]*Job
	order   []string
	cache   *lruCache[*Result]
	cells   *lruCache[*CellResult]

	// traces memoizes cohort traffic as encoded slabs across cells, jobs
	// and runners (nil when disabled). It has its own internal lock — the
	// fleet's workers consult it directly, outside mu — and its own
	// single-flight, so concurrently dispatched cells of one cohort share
	// one generation.
	traces *fleet.TraceCache

	// cellsRun counts cells actually executed by the fleet (as opposed to
	// served from a cache tier) — the observable the resume-equivalence
	// tests pin and a health gauge for cache effectiveness.
	cellsRun atomic.Uint64

	// cellsLive gauges cells currently executing across all runners (the
	// /healthz in-flight gauge).
	cellsLive atomic.Int64

	// budget is the manager-wide worker-token pool (cap = Config.Workers,
	// or GOMAXPROCS). A cell in flight holds one token (its first fleet
	// worker); extra fleet workers and additional concurrent cells each
	// hold one more, so total replay-goroutine pressure is capped at the
	// budget no matter how wide the grid or how many runners race.
	budget *fleet.Budget
}

// NewManager starts a manager with cfg.Runners runner goroutines.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:    cfg,
		jobs:   make(map[string]*Job),
		cache:  newLRUCache[*Result](cfg.CacheSize),
		cells:  newLRUCache[*CellResult](cfg.CellCacheSize),
		traces: fleet.NewTraceCache(cfg.TraceCacheBytes),
		budget: fleet.NewBudget(cfg.Workers),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Runners; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				m.mu.Lock()
				for len(m.pending) == 0 && !m.closed {
					m.cond.Wait()
				}
				if len(m.pending) == 0 { // closed and drained
					m.mu.Unlock()
					return
				}
				job := m.pending[0]
				m.pending = m.pending[1:]
				m.mu.Unlock()
				m.runJob(job)
			}
		}()
	}
	return m
}

// Close stops accepting submissions, cancels every live job, and waits for
// the runners to drain.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	live := make([]*Job, 0, len(m.jobs))
	//rrclint:ordered shutdown cancel fan-out; cancellation order is unobservable in any result bytes
	for _, j := range m.jobs {
		live = append(live, j)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, j := range live {
		j.requestCancel()
	}
	m.wg.Wait()
}

// Submit validates and enqueues a job. A fingerprint already in the result
// cache short-circuits: the returned job is born done with CacheHit set
// and shares the cached rendered bytes. A full queue fails fast with
// ErrQueueFull and registers nothing. Validation, the fingerprint and the
// grid plan all come from one registry resolution per axis value
// (planFingerprint); the runner executes the stored plan without
// re-resolving.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	job, _, err := m.SubmitStatus(spec)
	return job, err
}

// SubmitStatus is Submit that also returns the job's Status as of its
// submission: queued when it was enqueued, done when the result cache
// served it. A runner may start, and finish, an enqueued job before
// Submit's caller reads job.Status(), so an answer to the submission
// itself reports this snapshot instead.
func (m *Manager) SubmitStatus(spec Spec) (*Job, Status, error) {
	spec = spec.withDefaults()
	cells, fp, err := spec.planFingerprint(fleet.Options{Shards: spec.Shards})
	if err != nil {
		return nil, Status{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, Status{}, ErrClosed
	}
	if res, ok := m.cache.get(fp); ok {
		job := m.newJobLocked(spec, fp)
		job.state = StateDone
		job.cacheHit = true
		job.result = res
		job.finished = job.submitted
		job.progress = Progress{
			DoneShards: res.Progress.Shards, Shards: res.Progress.Shards,
			DoneJobs: res.Progress.TotalJobs, TotalJobs: res.Progress.TotalJobs,
		}
		close(job.done)
		m.registerLocked(job)
		return job, job.Status(), nil
	}
	// Admission counts only still-queued pending jobs: canceled entries
	// linger in the FIFO until a runner pops them but hold no capacity.
	live := 0
	for _, j := range m.pending {
		if j.currentState() == StateQueued {
			live++
		}
	}
	if live >= m.cfg.QueueDepth {
		return nil, Status{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
	job := m.newJobLocked(spec, fp)
	job.cells = cells
	m.pending = append(m.pending, job)
	m.registerLocked(job)
	// No runner can pop the job before mu is released, so it is queued.
	st := job.Status()
	m.cond.Signal()
	return job, st, nil
}

// Run executes spec to completion on a private Manager configured by cfg
// and returns its result: Submit, wait, Close. It is how a one-shot
// caller (a CLI, an experiment) runs a grid, on the same plan, cell
// executor and trace cache the service uses, so its cells are
// byte-identical to the service's cells on the same spec.
func Run(spec Spec, cfg Config) (*Result, error) {
	m := NewManager(cfg)
	defer m.Close()
	job, err := m.Submit(spec)
	if err != nil {
		return nil, err
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		return nil, err
	}
	return job.Result(), nil
}

// currentState reads the job's state under its lock.
func (j *Job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (m *Manager) newJobLocked(spec Spec, fp string) *Job {
	m.nextID++
	return &Job{
		id:          fmt.Sprintf("job-%06d", m.nextID),
		spec:        spec,
		fingerprint: fp,
		state:       StateQueued,
		cancel:      make(chan struct{}),
		done:        make(chan struct{}),
		submitted:   time.Now(),
	}
}

func (m *Manager) registerLocked(job *Job) {
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	// Retention: evict the oldest terminal jobs beyond MaxRecords so the
	// registry (and the results it pins) stays bounded. Live jobs are
	// never evicted; if every record is live the registry may transiently
	// exceed the cap by the number of live jobs, which QueueDepth bounds.
	for len(m.order) > m.cfg.MaxRecords {
		evicted := false
		for i, id := range m.order {
			if m.jobs[id].currentState().Terminal() {
				delete(m.jobs, id)
				m.order = append(m.order[:i:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every job in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	snapshot := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		snapshot = append(snapshot, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(snapshot))
	for _, j := range snapshot {
		out = append(out, j.Status())
	}
	return out
}

// Cancel requests cancellation. A queued job cancels immediately; a
// running job cancels at the fleet's next between-jobs check. Canceling a
// terminal job is a no-op. The second return reports whether the job
// exists.
func (m *Manager) Cancel(id string) (Status, bool) {
	j, ok := m.Get(id)
	if !ok {
		return Status{}, false
	}
	j.requestCancel()
	return j.Status(), true
}

// requestCancel closes the cancel channel and terminates the job at once
// when it is not running (queued jobs must not wait for a runner to pop
// them to report canceled).
func (j *Job) requestCancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		j.finish(StateCanceled, nil, fleet.ErrCanceled)
	}
}

// runJob executes one popped job through the cell executor (exec.go):
// independent frontier cells dispatch concurrently onto the manager-wide
// worker budget while results are collected in planned cell order, so
// every rendering, partial snapshot, fingerprint and store record is
// byte-identical to a sequential run.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	if job.state.Terminal() { // canceled while queued
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	spec := job.spec
	cells := job.cells
	job.mu.Unlock()
	m.traces.AdvanceEpoch()
	newCellExec(m, job, spec, cells).run()
}

// CellsInFlight gauges how many grid cells are executing right now across
// all runners (for the health endpoint).
func (m *Manager) CellsInFlight() int64 { return m.cellsLive.Load() }

// Cell returns a finished cell by its content-addressed key. It backs
// GET /v1/cells/{fingerprint}.
func (m *Manager) Cell(key string) (*CellResult, bool) { return m.lookupCell(key, nil) }

// lookupCell consults the cache tiers for a cell: the in-memory cell
// cache first, then the durable store. A store hit must survive three
// independent proofs before it is served: the store's record digest
// (these are the bytes Put wrote), the codec's framing (they mean a
// cell), and this function's cross-checks (they mean *this* cell: the
// axis labels match plan, when the caller planned the cell, and the
// summary's histogram layout equals the current default — mergePrior
// would panic on a drifted layout). Anything short of full proof
// quarantines the record before anything is cached and reports a miss;
// the cell recomputes, which is always safe.
func (m *Manager) lookupCell(key string, plan *gridCell) (*CellResult, bool) {
	m.mu.Lock()
	cached, hit := m.cells.get(key)
	m.mu.Unlock()
	if hit {
		return cached, true
	}
	if m.cfg.Store == nil {
		return nil, false
	}
	payload, ok := m.cfg.Store.Get(key)
	if !ok {
		return nil, false
	}
	res, err := decodeCellResult(payload)
	if err == nil && plan != nil && (res.Scheme != plan.Scheme || res.Profile != plan.Profile || res.Cohort != plan.Cohort) {
		err = fmt.Errorf("jobs: stored cell labels %s/%s/%s do not match plan %s/%s/%s",
			res.Scheme, res.Profile, res.Cohort, plan.Scheme, plan.Profile, plan.Cohort)
	}
	if err == nil && res.Summary.Config() != fleet.NewSummary(fleet.SummaryConfig{}).Config() {
		err = fmt.Errorf("jobs: stored cell summary layout drifted from current defaults")
	}
	if err != nil {
		m.cfg.Store.Quarantine(key)
		return nil, false
	}
	res.Key = key
	m.mu.Lock()
	m.cells.put(key, res)
	m.mu.Unlock()
	return res, true
}

// CellsExecuted reports how many cells this manager actually ran through
// the fleet (cache- and store-served cells excluded) — the resume
// tests' frontier counter and a health gauge.
func (m *Manager) CellsExecuted() uint64 { return m.cellsRun.Load() }

// TraceCacheStats snapshots the trace cache's gauges (zeros when the
// cache is disabled) — hit/miss/eviction counters, retained slab bytes
// and the wait-rule and fit memos' counters, for the health endpoint.
func (m *Manager) TraceCacheStats() fleet.TraceCacheStats { return m.traces.Stats() }

// StoreStats snapshots the durable store's gauges; ok is false when the
// manager runs without a store.
func (m *Manager) StoreStats() (store.Stats, bool) {
	if m.cfg.Store == nil {
		return store.Stats{}, false
	}
	return m.cfg.Store.Stats(), true
}

// mustMerge folds src into dst; layout mismatches are impossible (every
// summary of a job shares one SummaryConfig), so the error path panics.
func mustMerge(dst, src *fleet.Summary) {
	if err := dst.Merge(src); err != nil {
		panic(err)
	}
}

// lruCache is a small LRU keyed by a deterministic identity (the job
// fingerprint, or a cell key). Guarded by the manager's lock.
type lruCache[V any] struct {
	cap     int
	entries map[string]V
	// lru holds keys, least recent first.
	lru []string
}

func newLRUCache[V any](capacity int) *lruCache[V] {
	if capacity < 0 {
		capacity = 0
	}
	return &lruCache[V]{cap: capacity, entries: make(map[string]V)}
}

func (c *lruCache[V]) get(key string) (V, bool) {
	res, ok := c.entries[key]
	if ok {
		c.touch(key)
	}
	return res, ok
}

func (c *lruCache[V]) put(key string, res V) {
	if c.cap == 0 {
		return
	}
	if _, ok := c.entries[key]; ok {
		c.entries[key] = res
		c.touch(key)
		return
	}
	for len(c.entries) >= c.cap {
		oldest := c.lru[0]
		c.lru = c.lru[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = res
	c.lru = append(c.lru, key)
}

func (c *lruCache[V]) touch(key string) {
	for i, f := range c.lru {
		if f == key {
			c.lru = append(append(c.lru[:i:i], c.lru[i+1:]...), key)
			return
		}
	}
}

// CacheLen reports the number of cached results (for the health endpoint).
func (m *Manager) CacheLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache.entries)
}

// CellCacheLen reports the number of cached grid cells (for the health
// endpoint).
func (m *Manager) CellCacheLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells.entries)
}

// Len reports the number of registered jobs without materializing their
// statuses (for the health endpoint).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// QueueDepth returns the configured queue bound.
func (m *Manager) QueueDepth() int { return m.cfg.QueueDepth }
