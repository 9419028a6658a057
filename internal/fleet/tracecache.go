package fleet

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
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
// A retained slab's entry also carries its wait-rule replays: the scalar
// Result of the slab replayed under one profile and one sim.Wait rule,
// one per (sim.Options, profile, clamped rule). The StatusQuo baseline
// every job divides by is the tail-clamped constant wait, and the
// fixedtail, statusquo, fitted 95% IAT and Oracle schemes are the others.
// A miss claims, with its own rule, every (profile, rule) of the caller's
// batch no one has claimed yet under the same options, whatever the
// profile, plus the rules of the batch's fitted halves, which it resolves
// through the fit memo below before the pass, and replays them all in one
// sim.Engine.RunWaits pass over the slab, one wait set per profile. A grid
// thus decodes each user once per options for its whole wait axis on
// every profile instead of once per cell. A memo is a few scalars and
// lives and dies with its slab: it is retained, evicted and epoch-dropped
// with it and charges nothing to the byte budget. Replays are
// single-flight per key the same way generation is, and replays of slabs
// the cache did not retain are not memoized.
//
// The entry memoizes trace-fitted policies the same way, one per fitted
// half of a scheme (FitKey): a fit reads the whole trace, so without the
// memo every cell of a grid would materialize and fit the user again. The
// memo shares one policy between concurrent jobs, which the policy
// registry's TraceFitted contract makes safe (a fitted policy is
// immutable after construction). A fit whose builder ignores the profile
// is keyed without it and serves every profile of the grid.
type TraceCache struct {
	mu     sync.Mutex
	budget int64
	total  int64
	// entries holds ready slabs and in-flight generations; lru orders only
	// the ready ones (front = coldest).
	entries map[string]*traceEntry
	lru     *list.List
	epoch   uint64

	hits, misses, evictions  uint64
	baseHits, baseMisses     uint64
	replayHits, replayMisses uint64
	replayPasses             uint64
	fitHits, fitMisses       uint64
	// slabDecodes is counted outside mu: workers decode without it.
	slabDecodes atomic.Uint64
}

// traceEntry is one cached (or generating) slab. done closes once slab
// and err are final; both are immutable afterwards. elem is the entry's
// LRU position, nil while generating or once dropped. born is the epoch
// whose caller started the generation and last the latest epoch in which
// any caller touched the entry. replays and fits are the entry's
// wait-rule replay and fit memos, guarded by the cache's mu. replays is
// keyed by the dereferenced simulation options (nil counts as the zero
// value, which the engine treats identically).
type traceEntry struct {
	key        string
	done       chan struct{}
	slab       []byte
	err        error
	elem       *list.Element
	born, last uint64
	replays    map[sim.Options]*replaySet
	fits       map[fitKey]*fitMemo
}

// replaySet is an entry's wait-rule replays under one sim.Options, one
// list of memos per profile: profiles and rules are short lists, so a
// lookup scans them rather than hashing a profile-sized key. While a
// claimer is resolving the fitted rules of its batch, resolving is open:
// a lookup that finds no memo for its (profile, rule) then waits for it
// to close, when the claimer's rule lists are final, before it claims a
// pass of its own.
type replaySet struct {
	profs     []*profileMemos
	resolving chan struct{}
}

// profileMemos are a replaySet's memos under one profile.
type profileMemos struct {
	prof  power.Profile
	memos []*waitMemo
}

// waitMemo is one memoized (or still replaying) wait-rule replay. rule is
// clamped (sim.Wait.Clamped) to its profile's tail, the canonical form of
// rules that replay alike; val is final once its claim's done closes.
type waitMemo struct {
	rule  sim.Wait
	claim *claim
	val   sim.Result
}

// claim is one pass's hold on the rules it replays: done closes once
// every claimed memo is final, and err is the pass's error.
type claim struct {
	done chan struct{}
	err  error
}

// waitPass replays a slab once under every wait set: the lookup's
// profile first, its own rule leading, then one set per other profile.
// It returns one Result list per set, in order. The returned slices may
// be the caller's scratch: they are read before the next pass.
type waitPass func(sets []sim.WaitSet) ([][]sim.Result, error)

// waitBatch is what a lookup offers to claim with its own rule when it
// misses: rules under the lookup's own profile and sets under any
// profiles, the rules other jobs over the same packets and options
// replay, and fitted, which resolves the rules of their trace-fitted
// halves per profile (nil when there are none). fitted runs only on a
// miss of a retained slab, outside the cache's lock, and may use the fit
// memo.
type waitBatch struct {
	rules  []sim.Wait
	sets   []sim.WaitSet
	fitted func() []sim.WaitSet
}

// fitKey identifies one fitted policy of an entry's slab: the half's
// role and canonical spec, plus the profile when the builder reads it
// (zero otherwise, so every profile shares the fit).
type fitKey struct {
	role policy.Role
	spec string
	prof power.Profile
}

// fitMemo is one memoized (or still fitting) policy half. done closes
// once val and err are final; both are immutable afterwards.
type fitMemo struct {
	done chan struct{}
	val  any
	err  error
}

// TraceCacheStats is a point-in-time snapshot of the cache gauges.
// Misses count generations actually run (single-flight waiters count as
// hits: they reused another caller's generation); Bytes and Entries
// cover retained slabs only. BaselineMisses counts baseline lookups that
// found their replay unclaimed and BaselineHits those served from (or
// waiting on) another lookup's replay; ReplayMisses and ReplayHits count
// the scheme replays looked up in the wait-rule memo the same way.
// Every miss runs one pass over the slab, which replays its own wait and
// the unclaimed rest of its batch together, on every profile the batch
// names, so ReplayPasses, the passes actually run, is BaselineMisses +
// ReplayMisses. FitMisses and FitHits
// count fits the same way. Replays and fits of slabs the cache did not
// retain count in none of them. SlabDecodes counts the passes workers
// decoded out of a slab the cache returned, retained or not: wait-rule
// passes, fit collections and unmemoized replays alike. A worker that
// collected a slab's packets for a fit replays its job's other passes
// over that slab from the collected trace, so a claiming miss that fits
// first decodes once for its fits and its pass together.
type TraceCacheStats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Evictions      uint64 `json:"evictions"`
	Entries        int    `json:"entries"`
	Bytes          int64  `json:"bytes"`
	BaselineHits   uint64 `json:"baseline_hits"`
	BaselineMisses uint64 `json:"baseline_misses"`
	ReplayHits     uint64 `json:"replay_hits"`
	ReplayMisses   uint64 `json:"replay_misses"`
	ReplayPasses   uint64 `json:"replay_passes"`
	FitHits        uint64 `json:"fit_hits"`
	FitMisses      uint64 `json:"fit_misses"`
	SlabDecodes    uint64 `json:"slab_decodes"`
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

// baseline returns the StatusQuo baseline of key's slab under (prof,
// opts): the scalars of its replay under the tail-clamped wait, looked up
// through replay (the baseline's own wait is policy.Never, which clamps to
// the tail). A miss claims batch with it.
func (c *TraceCache) baseline(key string, prof power.Profile, opts *sim.Options, batch waitBatch, pass waitPass) (Baseline, error) {
	r, err := c.replay(key, prof, opts, sim.Wait{D: policy.Never}, batch, true, pass)
	if err != nil {
		return Baseline{}, err
	}
	return Baseline{TotalJ: r.TotalJ(), Promotions: r.Promotions}, nil
}

// ruleReplay returns key's slab replayed under the wait rule r, looked up
// through replay. A miss claims batch with it.
func (c *TraceCache) ruleReplay(key string, prof power.Profile, opts *sim.Options, r sim.Wait, batch waitBatch, pass waitPass) (sim.Result, error) {
	return c.replay(key, prof, opts, r, batch, false, pass)
}

// replay returns the scalar Result of key's slab replayed under (prof,
// opts) and the wait rule r, calling pass at most once per (profile,
// clamped rule) under opts for as long as the cache retains the slab. The
// first lookup of a rule claims it, plus every (profile, rule) of batch's
// rules and sets that no lookup has claimed yet, all under mu. When
// batch.fitted is set, the claimer then marks the set as resolving, calls
// it outside the lock and claims the unclaimed rules it returns too, so
// the fitted rules join the pass whichever job arrives first; a lookup
// that misses meanwhile, under any profile, waits for those lists to be
// final. The claimer replays every claimed rule in one pass, its own
// profile's rules as the first wait set; a lookup whose rule is already
// claimed waits for that claimer's pass instead. Waiting is deadlock-free
// for the same reason Slab's is: fitted and pass run on the calling
// goroutine and acquire nothing but fits, whose builders acquire nothing.
// A pass error is returned to every waiter of every rule it claimed but
// not memoized, so a later caller retries. A set of batch whose profile
// fails validation is left out, so its own lookups claim it and report
// its error rather than failing this pass. With a nil cache, an empty
// key, or a slab the cache does not hold (never retained, or dropped
// since), replay just runs pass for the one (clamped) rule. base picks
// the baseline counters over the scheme-replay ones.
func (c *TraceCache) replay(key string, prof power.Profile, opts *sim.Options, r sim.Wait, batch waitBatch,
	base bool, pass waitPass) (sim.Result, error) {
	r = r.Clamped(prof.Tail())
	if c == nil || key == "" {
		return firstResult(pass([]sim.WaitSet{{Prof: prof, Rules: []sim.Wait{r}}}))
	}
	var k sim.Options
	if opts != nil {
		k = *opts
	}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.elem == nil {
		c.mu.Unlock()
		return firstResult(pass([]sim.WaitSet{{Prof: prof, Rules: []sim.Wait{r}}}))
	}
	set := e.replays[k]
	if set == nil {
		set = &replaySet{}
		if e.replays == nil {
			e.replays = map[sim.Options]*replaySet{}
		}
		e.replays[k] = set
	}
	for {
		if m := set.find(&prof, r); m != nil {
			if base {
				c.baseHits++
			} else {
				c.replayHits++
			}
			c.mu.Unlock()
			<-m.claim.done
			return m.val, m.claim.err
		}
		if set.resolving == nil {
			break
		}
		resolving := set.resolving
		c.mu.Unlock()
		<-resolving
		c.mu.Lock()
	}
	cl := &claim{done: make(chan struct{})}
	// The pass's wait sets, prof's first with r leading; at[i] locates
	// claimed[i]'s Result.
	claimed := []*waitMemo{{rule: r, claim: cl}}
	at := [][2]int{{0, 0}}
	sets := []sim.WaitSet{{Prof: prof, Rules: []sim.Wait{r}}}
	pm := set.memos(prof)
	pm.memos = append(pm.memos, claimed[0])
	take := func(p power.Profile, rules []sim.Wait) {
		if p.Validate() != nil {
			return
		}
		tail := p.Tail()
		for _, b := range rules {
			if b = b.Clamped(tail); set.find(&p, b) != nil {
				continue
			}
			m := &waitMemo{rule: b, claim: cl}
			pm := set.memos(p)
			pm.memos = append(pm.memos, m)
			claimed = append(claimed, m)
			g := slices.IndexFunc(sets, func(s sim.WaitSet) bool { return s.Prof == p })
			if g < 0 {
				g = len(sets)
				sets = append(sets, sim.WaitSet{Prof: p})
			}
			sets[g].Rules = append(sets[g].Rules, b)
			at = append(at, [2]int{g, len(sets[g].Rules) - 1})
		}
	}
	takeSets := func(sets []sim.WaitSet) {
		for _, s := range sets {
			take(s.Prof, s.Rules)
		}
	}
	take(prof, batch.rules)
	takeSets(batch.sets)
	if base {
		c.baseMisses++
	} else {
		c.replayMisses++
	}
	c.replayPasses++
	if batch.fitted != nil {
		resolving := make(chan struct{})
		set.resolving = resolving
		c.mu.Unlock()
		fitted := batch.fitted()
		c.mu.Lock()
		takeSets(fitted)
		set.resolving = nil
		close(resolving)
	}
	c.mu.Unlock()

	res, err := pass(sets)
	if err != nil {
		c.mu.Lock()
		for _, pm := range set.profs {
			pm.memos = slices.DeleteFunc(pm.memos, func(m *waitMemo) bool { return m.claim == cl })
		}
		c.mu.Unlock()
	} else {
		for i, m := range claimed {
			m.val = res[at[i][0]][at[i][1]]
		}
	}
	cl.err = err
	close(cl.done)
	return claimed[0].val, err
}

// find returns the memo of the clamped rule r under prof, or nil.
func (s *replaySet) find(prof *power.Profile, r sim.Wait) *waitMemo {
	for _, pm := range s.profs {
		if pm.prof == *prof {
			for _, m := range pm.memos {
				if m.rule == r {
					return m
				}
			}
			return nil
		}
	}
	return nil
}

// memos returns prof's memo list, adding an empty one if there is none.
func (s *replaySet) memos(prof power.Profile) *profileMemos {
	for _, pm := range s.profs {
		if pm.prof == prof {
			return pm
		}
	}
	pm := &profileMemos{prof: prof}
	s.profs = append(s.profs, pm)
	return pm
}

// firstResult is the unmemoized lookup's answer: the pass's first Result.
func firstResult(res [][]sim.Result, err error) (sim.Result, error) {
	if err != nil {
		return sim.Result{}, err
	}
	return res[0][0], nil
}

// fit returns the policy half fitted to key's slab under fk, calling
// build to fit it at most once for as long as the cache retains the slab,
// under replay's single-flight, error and no-slab rules. prof joins the
// key only when the builder reads it.
func (c *TraceCache) fit(key string, role policy.Role, fk FitKey, prof power.Profile, build func() (any, error)) (any, error) {
	if c == nil {
		return build()
	}
	k := fitKey{role: role, spec: fk.Spec}
	if !fk.ProfileFree {
		k.prof = prof
	}
	if key == "" {
		return build()
	}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.elem == nil {
		c.mu.Unlock()
		return build()
	}
	if m, ok := e.fits[k]; ok {
		c.fitHits++
		c.mu.Unlock()
		<-m.done
		return m.val, m.err
	}
	m := &fitMemo{done: make(chan struct{})}
	if e.fits == nil {
		e.fits = map[fitKey]*fitMemo{}
	}
	e.fits[k] = m
	c.fitMisses++
	c.mu.Unlock()

	m.val, m.err = build()
	if m.err != nil {
		c.mu.Lock()
		delete(e.fits, k)
		c.mu.Unlock()
	}
	close(m.done)
	return m.val, m.err
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

		BaselineHits:   c.baseHits,
		BaselineMisses: c.baseMisses,
		ReplayHits:     c.replayHits,
		ReplayMisses:   c.replayMisses,
		ReplayPasses:   c.replayPasses,
		FitHits:        c.fitHits,
		FitMisses:      c.fitMisses,
		SlabDecodes:    c.slabDecodes.Load(),
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
