package fleet

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
)

// TraceCache memoizes generated cohort traffic across fleet runs as
// rrcstream-encoded byte slabs, keyed by a caller-chosen string that must
// capture everything the packets depend on (generator config and seed —
// Cohort.Jobs derives one from the cohort's canonical encoding). Grid
// sweeps replay the same cohort against every (scheme, profile) cell;
// without the cache each replay re-synthesizes its user's traffic from
// the seed, and generation — RNG setup, the reorder buffer, the diurnal
// mask — dominates the cost of short-trace cells. With it, generation
// runs once per key per cache lifetime: the first toucher streams the
// generator through the codec into a compact slab (2-5 bytes per packet
// versus the 24-byte in-memory Packet), and every later replay decodes
// straight out of the shared bytes via trace.BytesSource. The codec
// round-trips exactly (Generate = Collect(Stream) is bit-stable), so
// cached and uncached replays are byte-identical.
//
// Generation is single-flight: concurrent callers of one key wait for the
// first caller's generation instead of duplicating it, so N cells racing
// over a shared cohort still synthesize each user once. Waiting is safe
// under the worker budget — a generating worker needs no further tokens
// to finish, so a waiter blocked while holding its own token can never be
// part of a cycle (see Slab).
//
// Capacity is a byte budget over retained slabs, evicted LRU; an entry
// mid-generation holds no budget and is never evicted. A slab larger than
// the whole budget is returned to its generator but not retained, and a
// retained slab is an exact-capacity copy, so Bytes is what the slabs
// hold. A nil *TraceCache disables caching everywhere it is consulted.
//
// Retention also tolerates scans. A caller that runs independent units
// of work (the jobs manager: one per job) calls AdvanceEpoch as each one
// starts. A slab touched only in the epoch that generated it — a job
// with fresh seeds, whose traffic no later job replays — is dropped once
// two epochs have begun since, so its job and the next one can still
// share it; a slab touched in any later epoch stays under the LRU budget.
// Without AdvanceEpoch calls the cache is a plain LRU.
//
// A retained slab's entry also carries memos of what every job over the
// slab would otherwise recompute, each keyed, single-flight, with errors
// not memoized, and living and dying with its slab: it is retained,
// evicted and epoch-dropped with it and charges nothing to the byte
// budget. Lookups of slabs the cache did not retain are not memoized.
//
//   - One wait table per WaitPlan key: the slab replayed under every wait
//     rule of the plan on every profile, fitted rules included, in one
//     sim.Engine.RunWaits pass (see WaitPlan). The first job of a grid to
//     reach a user builds it; every job of the plan then reads its StatusQuo
//     baseline, and its own Result when its demote policy is a wait rule,
//     from it, so a grid decodes each user once for its whole wait axis on
//     every profile instead of once per cell.
//   - One trace-fitted policy per fitted half of a scheme (FitKey): a fit
//     reads the whole trace, so without the memo every cell of a grid would
//     materialize and fit the user again. The memo shares one policy
//     between concurrent jobs, which the policy registry's TraceFitted
//     contract makes safe (a fitted policy is immutable after
//     construction). A fit whose builder ignores the profile is keyed
//     without it and serves every profile of the grid.
type TraceCache struct {
	mu     sync.Mutex
	budget int64
	total  int64
	// entries holds ready slabs and in-flight generations; lru orders only
	// the ready ones (front = coldest).
	entries map[string]*traceEntry
	lru     *list.List
	epoch   uint64

	hits, misses, evictions uint64
	tables                  uint64
	fitHits, fitMisses      uint64
	// slabDecodes is counted outside mu: workers decode without it.
	slabDecodes atomic.Uint64
}

// traceEntry is one cached (or generating) slab. done closes once slab
// and err are final; both are immutable afterwards. elem is the entry's
// LRU position, nil while generating or once dropped. born is the epoch
// whose caller started the generation and last the latest epoch in which
// any caller touched the entry. memos holds the entry's wait tables and
// fitted policies, guarded by the cache's mu.
type traceEntry struct {
	key        string
	done       chan struct{}
	slab       []byte
	err        error
	elem       *list.Element
	born, last uint64
	memos      map[memoKey]*memo
}

// memo is one memoized (or still building) value of an entry. done closes
// once val and err are final; both are immutable afterwards.
type memo struct {
	done chan struct{}
	val  any
	err  error
}

// memoKey identifies one memo of an entry: a wait table by its plan's
// Key, or a fitted policy by its fitKey.
type memoKey struct {
	plan string
	fit  fitKey
}

// fitKey identifies one fitted policy of an entry's slab: the half's
// role and canonical spec, plus the profile when the builder reads it
// (zero otherwise, so every profile shares the fit).
type fitKey struct {
	role policy.Role
	spec string
	prof power.Profile
}

// TraceCacheStats is a point-in-time snapshot of the cache gauges.
// Misses count generations actually run (single-flight waiters count as
// hits: they reused another caller's generation); Bytes and Entries
// cover retained slabs only. ReplayPasses counts the wait tables built,
// one RunWaits pass over a slab each: one per (cohort, user) of a fresh
// grid. FitMisses counts fits actually run and FitHits the fit lookups
// served from (or waiting on) another lookup's fit. Tables and fits of
// slabs the cache did not retain count in none of them. SlabDecodes counts
// the passes workers decoded out of a slab the cache returned, retained or
// not: table passes, fit collections and a job's own replays alike. A
// worker that collected a slab's packets for a fit replays its job's other
// passes over that slab from the collected trace, so a table build that
// fits first decodes once for its fits and its pass together.
type TraceCacheStats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
	Entries      int    `json:"entries"`
	Bytes        int64  `json:"bytes"`
	ReplayPasses uint64 `json:"replay_passes"`
	FitHits      uint64 `json:"fit_hits"`
	FitMisses    uint64 `json:"fit_misses"`
	SlabDecodes  uint64 `json:"slab_decodes"`
}

// NewTraceCache returns a cache bounded to maxBytes of retained slab
// bytes; maxBytes <= 0 returns nil (caching disabled).
func NewTraceCache(maxBytes int64) *TraceCache {
	if maxBytes <= 0 {
		return nil
	}
	return &TraceCache{
		budget:  maxBytes,
		entries: map[string]*traceEntry{},
		lru:     list.New(),
	}
}

// Slab returns the encoded trace for key, generating it exactly once per
// cache lifetime: on a miss the calling goroutine drains gen() through
// the rrcstream codec while concurrent callers of the same key block
// until the slab (or the generation error) is final. The returned bytes
// are shared and must be treated as read-only; replay them with
// trace.BytesSource.
//
// Deadlock-freedom under a worker budget: generation runs entirely on the
// calling goroutine and acquires nothing — no budget tokens, no cache
// lock while generating — so a generator always finishes and waiters
// always wake, even when every waiter holds a token the generator could
// be presumed to want. Generation errors are returned to every waiter
// but never cached: the failing entry is dropped, so a later caller
// retries.
func (c *TraceCache) Slab(key string, gen func() trace.Source) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToBack(e.elem)
		}
		e.last = c.epoch
		c.hits++
		c.mu.Unlock()
		<-e.done
		return e.slab, e.err
	}
	e := &traceEntry{key: key, done: make(chan struct{}), born: c.epoch, last: c.epoch}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	slab, err := trace.EncodeStream(gen())
	keep := err == nil && int64(len(slab)) <= c.budget
	if keep && cap(slab) != len(slab) {
		// EncodeStream hands back its grown buffer; retain only the bytes.
		exact := make([]byte, len(slab))
		copy(exact, slab)
		slab = exact
	}
	e.slab, e.err = slab, err

	c.mu.Lock()
	if !keep {
		delete(c.entries, key)
	} else {
		e.elem = c.lru.PushBack(e)
		c.total += int64(len(slab))
		for c.total > c.budget {
			c.evict(c.lru.Front().Value.(*traceEntry))
		}
	}
	c.mu.Unlock()
	close(e.done)
	return slab, err
}

// memoize returns the value memoized under k for key's slab, calling
// build at most once for as long as the cache retains the slab: later
// lookups wait for the first one's build (single flight), and a build
// error is returned to every waiter but not memoized, so a later lookup
// builds again. misses counts builds and hits, unless nil, the other
// lookups; both are fields of c, guarded by mu. held is false, and build
// is not called, when key is empty or c does not retain its slab. Waiting
// is deadlock-free for the same reason Slab's is: a build runs on the
// calling goroutine and waits for nothing but fits, whose builds acquire
// nothing.
func (c *TraceCache) memoize(key string, k memoKey, hits, misses *uint64, build func() (any, error)) (val any, held bool, err error) {
	if key == "" {
		return nil, false, nil
	}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.elem == nil {
		c.mu.Unlock()
		return nil, false, nil
	}
	if m, ok := e.memos[k]; ok {
		if hits != nil {
			*hits++
		}
		c.mu.Unlock()
		<-m.done
		return m.val, true, m.err
	}
	m := &memo{done: make(chan struct{})}
	if e.memos == nil {
		e.memos = map[memoKey]*memo{}
	}
	e.memos[k] = m
	*misses++
	c.mu.Unlock()

	m.val, m.err = build()
	if m.err != nil {
		c.mu.Lock()
		delete(e.memos, k)
		c.mu.Unlock()
	}
	close(m.done)
	return m.val, true, m.err
}

// table returns the wait table of plan over key's slab, calling build at
// most once per plan key under memoize's rules. It returns nil, and does
// not call build, when c is nil or does not retain the slab.
func (c *TraceCache) table(key string, plan *WaitPlan, build func() (*waitTable, error)) (*waitTable, error) {
	if c == nil {
		return nil, nil
	}
	v, _, err := c.memoize(key, memoKey{plan: plan.Key}, nil, &c.tables, func() (any, error) { return build() })
	t, _ := v.(*waitTable)
	return t, err
}

// fit returns the policy half fitted to key's slab under fk, calling
// build to fit it at most once under memoize's rules, or on every call
// when c is nil or does not retain the slab. prof joins the key only when
// the builder reads it.
func (c *TraceCache) fit(key string, role policy.Role, fk FitKey, prof power.Profile, build func() (any, error)) (any, error) {
	if c == nil {
		return build()
	}
	k := fitKey{role: role, spec: fk.Spec}
	if !fk.ProfileFree {
		k.prof = prof
	}
	if v, held, err := c.memoize(key, memoKey{fit: k}, &c.fitHits, &c.fitMisses, build); held {
		return v, err
	}
	return build()
}

// AdvanceEpoch starts a new epoch and drops the ready slabs that no
// caller touched after the epoch that generated them, once that epoch is
// two or more behind (see TraceCache). Drops count as evictions; entries
// still generating are never dropped. A nil cache does nothing.
func (c *TraceCache) AdvanceEpoch() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	for el := c.lru.Front(); el != nil; {
		e := el.Value.(*traceEntry)
		el = el.Next()
		if e.last == e.born && c.epoch-e.last >= 2 {
			c.evict(e)
		}
	}
}

// evict drops a ready entry. Callers hold mu.
func (c *TraceCache) evict(e *traceEntry) {
	c.lru.Remove(e.elem)
	e.elem = nil
	delete(c.entries, e.key)
	c.total -= int64(len(e.slab))
	c.evictions++
}

// Stats snapshots the cache gauges. A nil cache reports zeros.
func (c *TraceCache) Stats() TraceCacheStats {
	if c == nil {
		return TraceCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return TraceCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		Bytes:     c.total,

		ReplayPasses: c.tables,
		FitHits:      c.fitHits,
		FitMisses:    c.fitMisses,
		SlabDecodes:  c.slabDecodes.Load(),
	}
}

// countDecode counts one pass decoded out of a slab of c. A nil cache
// counts nothing.
func (c *TraceCache) countDecode() {
	if c != nil {
		c.slabDecodes.Add(1)
	}
}

// Len reports the number of retained slabs (for tests and introspection).
func (c *TraceCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
