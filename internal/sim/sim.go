// Package sim is the trace-driven simulation engine (§6.1): it replays a
// packet trace against a carrier power profile under a pair of control
// policies — a DemotePolicy (MakeIdle or a baseline) and an optional
// ActivePolicy (MakeActive) — and accounts energy, state switches, packet
// promotion delays and session batching delays.
//
// # Model
//
// Data energy: each packet is charged its transmission time at the
// direction's bulk power (Table 1), per the paper's energy-per-second model.
//
// Tail energy: after each packet the demote policy picks a dormancy wait w.
// If the next packet arrives within min(w, t1+t2), the radio pays tail power
// (T1 power, then T2 power) for the gap and stays connected. Otherwise it
// pays tail power until the demotion point, a fast-dormancy demotion, an
// Idle stretch, and a promotion when the next packet arrives (which also
// delays that packet by the promotion latency). The status quo is the
// special case w = t1+t2, with its demotion charged the same way — exactly
// how the paper's E(t) charges Eswitch on gaps longer than the tail.
//
// Batching: when a burst arrives and finds the radio Idle, the active
// policy may open a batching window of length D. All bursts arriving inside
// the window are shifted to its end and released together, sharing a single
// promotion (§5). Sessions already begun are never stretched: each burst
// keeps its internal packet spacing.
//
// Demote decisions are made lazily, at the first event that needs them,
// which lets clairvoyant policies (the Oracle) receive the exact upcoming
// gap via policy.GapLookahead without a second pass.
//
// # Streaming replay
//
// The engine pulls packets from a trace.Source through a bounded
// burst-segmentation lookahead window (see burstWindow), so replay memory
// is a function of burst structure and the active policy's horizon — never
// of trace length. The slice API (Run) adapts the trace to a source and
// uses the same path, which is what makes materialized and streamed
// replays of identical packets byte-identical in every Result field.
package sim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
)

// Options tunes a simulation run. The zero value (or nil) gives defaults.
type Options struct {
	// BurstGap segments the trace into sessions for MakeActive (default
	// 1 s). Gaps larger than this start a new burst.
	BurstGap time.Duration
	// RecordDecisions keeps the per-gap decision list in the Result
	// (needed for FP/FN scoring and the Fig. 14 trajectory).
	RecordDecisions bool
	// RecordEpisodes keeps the batching-episode log (Fig. 16).
	RecordEpisodes bool
}

func (o *Options) burstGap() time.Duration {
	if o == nil || o.BurstGap <= 0 {
		return time.Second
	}
	return o.BurstGap
}

func (o *Options) recordDecisions() bool { return o != nil && o.RecordDecisions }
func (o *Options) recordEpisodes() bool  { return o != nil && o.RecordEpisodes }

// GapDecision records one demote decision and its outcome.
type GapDecision struct {
	// At is the time of the packet that opened the gap.
	At time.Duration
	// Gap is the realized inter-arrival to the next packet.
	Gap time.Duration
	// Wait is the dormancy wait the policy chose (policy.Never = timers).
	Wait time.Duration
	// Demoted reports whether the radio actually went Idle in this gap
	// (by fast dormancy or by the timers running out).
	Demoted bool
}

// Episode records one MakeActive batching window.
type Episode struct {
	// At is the arrival time of the first burst.
	At time.Duration
	// Delay is the batching window the policy chose.
	Delay time.Duration
	// Buffered is how many bursts were released together.
	Buffered int
}

// Result is the outcome of one simulation run.
type Result struct {
	Policy  string
	Active  string // "" when batching is disabled
	Profile string

	// Breakdown is the energy split into Fig. 1's categories.
	Breakdown energy.Breakdown
	// Promotions counts Idle->Active switches (signaling overhead,
	// Figs. 10b/11b/18).
	Promotions int
	// Demotions counts transitions into Idle.
	Demotions int
	// PromotedPackets is how many packets were delayed by a promotion.
	PromotedPackets int
	// PromotionDelayTotal accumulates that delay.
	PromotionDelayTotal time.Duration

	// BurstDelays holds, for every burst that passed through a batching
	// window, how long its start was deferred. Empty without MakeActive.
	BurstDelays []time.Duration
	// Episodes counts batching windows; EpisodeLog has details when
	// Options.RecordEpisodes is set.
	Episodes   int
	EpisodeLog []Episode

	// Decisions is the per-gap record when Options.RecordDecisions is set.
	Decisions []GapDecision

	// Packets and Duration describe the (possibly shifted) replayed trace.
	Packets  int
	Duration time.Duration
}

// TotalJ is the total energy consumed.
func (r *Result) TotalJ() float64 { return r.Breakdown.Total() }

// enginePool recycles engines (and their scratch buffers) across Run calls.
var enginePool = sync.Pool{New: func() interface{} { return NewEngine() }}

// Run simulates a trace under the given policies. demote must be non-nil
// (use policy.StatusQuo{} for the deployed behaviour); active may be nil to
// disable batching. Policies are Reset before the run.
//
// Run draws a reusable Engine from an internal pool; callers replaying many
// traces on one goroutine (fleet workers, sweeps) can hold their own Engine
// instead and skip the pool round-trip.
func Run(tr trace.Trace, prof power.Profile, demote policy.DemotePolicy, active policy.ActivePolicy, opts *Options) (*Result, error) {
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	return e.Run(tr, prof, demote, active, opts)
}

// RunSource is Run for a streaming packet source: the replay pulls packets
// on demand through the engine's bounded burst lookahead, so memory is
// independent of trace length. A slice-backed source and a streaming
// source yielding the same packets produce byte-identical Results.
func RunSource(src trace.Source, prof power.Profile, demote policy.DemotePolicy, active policy.ActivePolicy, opts *Options) (*Result, error) {
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	return e.RunSource(src, prof, demote, active, opts)
}

// Engine replays traces. An Engine is reusable: each Run resets its state
// and recycles its internal scratch buffers, so a long-lived Engine replays
// traces with near-zero steady-state allocation (only the Result and its
// caller-visible slices are fresh per run). An Engine is not safe for
// concurrent use; use one per goroutine.
type Engine struct {
	// prof is stored by value: taking the address of the parameter would
	// force a heap copy of the profile on every run.
	prof      power.Profile
	demote    policy.DemotePolicy
	active    policy.ActivePolicy
	lookahead policy.GapLookahead
	opts      *Options
	res       *Result

	// rates are the run's accounting coefficients and acct its scalar
	// accounting; dataJ accumulates the data energy, which depends on the
	// packets alone, and tx memoizes each packet's share of it. The
	// accounts are copied into the Result once the replay ends.
	rates  rates
	acct   tally
	dataJ  float64
	tx     txMemo
	recDec bool // opts.recordDecisions(), hoisted out of the gap loop

	// forceGeneric (a test knob) disables the wait-rule pass and the
	// direct no-batching loop, so equivalence tests can drive every
	// policy through the Decide/Observe interface path on demand.
	forceGeneric bool //rrclint:testseam

	started bool
	lastT   time.Duration // time of the last processed packet
	lastTx  time.Duration // transmission time of the last packet
	pending time.Duration // dormancy wait decided after the last packet
	decided bool          // whether pending is valid for lastT
	packets int

	// Scratch buffers reused across runs (never escape to the Result).
	group    []trace.Burst     //rrclint:scratch
	merged   trace.Trace       //rrclint:scratch
	mergeTmp trace.Trace       //rrclint:scratch
	runs     []int             //rrclint:scratch
	runsTmp  []int             //rrclint:scratch
	arrivals []time.Duration   //rrclint:scratch
	window   burstWindow       //rrclint:scratch
	slice    trace.SliceSource //rrclint:scratch
	rules    []ruleTally       //rrclint:scratch
	// waitGroups are RunWaits' per-profile states; Reset zeroes them so
	// an idle engine pins no profile.
	waitGroups []waitGroup //rrclint:scratch
}

// NewEngine returns a reusable replay engine.
func NewEngine() *Engine { return &Engine{} }

// Reset clears all per-run state while keeping scratch buffer capacity.
// Run calls it implicitly; it is exported for callers that want to drop
// references to policies/profiles between runs.
func (e *Engine) Reset() {
	// Zero the burst scratch before truncating: its elements alias the
	// window's recycled packet buffers and must not pin stale data in an
	// idle pooled engine. merged/arrivals hold only value types.
	for i := range e.group {
		e.group[i] = trace.Burst{}
	}
	group, merged, arrivals := e.group[:0], e.merged[:0], e.arrivals[:0]
	window := e.window
	window.reset(nil, 0) // recycle burst buffers, drop the source reference
	// The slice adapter survives Reset unrewound: RunSource resets the
	// engine after wiring it up, so zeroing it here would drop the very
	// trace Run is about to replay. Run clears it once the replay ends.
	slice := e.slice
	clear(e.waitGroups)
	*e = Engine{group: group, merged: merged, arrivals: arrivals, window: window, slice: slice,
		mergeTmp: e.mergeTmp[:0], runs: e.runs[:0], runsTmp: e.runsTmp[:0],
		rules: e.rules[:0], waitGroups: e.waitGroups[:0], forceGeneric: e.forceGeneric,
		tx: newTxMemo()}
}

// Run replays one materialized trace on this engine. Semantics are
// identical to the package-level Run; internally the trace is replayed
// through the same streaming path RunSource uses, so the two agree bit for
// bit on identical packets.
func (e *Engine) Run(tr trace.Trace, prof power.Profile, demote policy.DemotePolicy, active policy.ActivePolicy, opts *Options) (*Result, error) {
	e.slice.Reset(tr)
	res, err := e.RunSource(&e.slice, prof, demote, active, opts)
	e.slice.Reset(nil) // drop the trace reference until the next run
	return res, err
}

// RunSource replays a streaming packet source on this engine. Semantics
// are identical to the package-level RunSource. Invalid input (unsorted or
// negative timestamps, bad directions, negative sizes) is rejected with
// the same errors Trace.Validate reports, discovered at the offending
// packet.
func (e *Engine) RunSource(src trace.Source, prof power.Profile, demote policy.DemotePolicy, active policy.ActivePolicy, opts *Options) (*Result, error) {
	res := new(Result)
	if err := e.RunSourceInto(res, src, prof, demote, active, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// RunSourceInto is RunSource writing into a caller-owned Result: res is
// overwritten wholesale, reusing its slice capacity, so a caller replaying
// in a loop allocates no Result (and, steady-state, no slices) per run. The
// fields are byte-identical to what RunSource would have returned. On error
// res is left in an unspecified state.
//
// A demote policy WaitOf recognizes, replayed with no active policy and
// no logs, runs as a one-rule RunWaits pass: its Decide and Observe are
// never called.
func (e *Engine) RunSourceInto(res *Result, src trace.Source, prof power.Profile, demote policy.DemotePolicy, active policy.ActivePolicy, opts *Options) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	if demote == nil {
		return fmt.Errorf("sim: demote policy is nil")
	}
	if src == nil {
		return fmt.Errorf("sim: source is nil")
	}
	demote.Reset()
	if active != nil {
		active.Reset()
	}
	if w, ok := WaitOf(demote); ok && active == nil && !e.forceGeneric &&
		!opts.recordDecisions() && !opts.recordEpisodes() {
		if err := e.runWait(res, src, prof, w, opts); err != nil {
			return err
		}
		res.Policy = demote.Name()
		return nil
	}

	// Overwrite every field; truncation (not nil) keeps a reused Result's
	// slice capacity. A fresh Result's nil slices stay nil under [:0], so
	// the non-reusing callers return exactly the bytes they always did.
	*res = Result{
		Policy:      demote.Name(),
		Profile:     prof.Name,
		BurstDelays: res.BurstDelays[:0],
		EpisodeLog:  res.EpisodeLog[:0],
		Decisions:   res.Decisions[:0],
	}
	if active != nil {
		res.Active = active.Name()
	}

	e.Reset()
	e.prof = prof
	e.demote = demote
	e.active = active
	e.opts = opts
	e.res = res
	e.lookahead, _ = demote.(policy.GapLookahead)
	e.rates = newRates(&prof)
	e.recDec = opts.recordDecisions()
	e.window.reset(src, opts.burstGap())
	if err := e.run(); err != nil {
		e.Reset()
		return err
	}

	e.acct.settle(res, e.dataJ)
	res.Packets = e.packets
	res.Duration = e.lastT
	// Byte-identity with Run: a run that recorded nothing into a reused
	// slice must leave the field nil, exactly as a fresh Result would —
	// the backing array is only dropped in that empty case.
	if len(res.BurstDelays) == 0 {
		res.BurstDelays = nil
	}
	if len(res.EpisodeLog) == 0 {
		res.EpisodeLog = nil
	}
	if len(res.Decisions) == 0 {
		res.Decisions = nil
	}
	e.Reset() // drop policy/profile/result references until the next run
	return nil
}

// ensureDecision fixes the demote decision for the gap that began at the
// last packet, if not already made. nextAt is the best current estimate of
// when the next packet arrives (policy.Never at end of trace); clairvoyant
// policies receive it as the upcoming gap.
func (e *Engine) ensureDecision(nextAt time.Duration) {
	if e.decided || !e.started {
		return
	}
	gap := policy.Never
	if nextAt != policy.Never {
		gap = nextAt - e.lastT
	}
	if e.lookahead != nil {
		e.lookahead.ObserveNextGap(gap)
	}
	w := e.demote.Decide(e.lastT)
	if w < 0 {
		w = 0
	}
	e.pending = w
	e.decided = true
}

// idleAt returns the absolute time the radio reaches Idle after the last
// packet, given the pending decision (which must have been ensured).
func (e *Engine) idleAt() time.Duration {
	return e.lastT + min(e.pending, e.rates.tail)
}

// horizon returns the learning horizon for episode observations: the
// maximum delay the active policy might propose.
func (e *Engine) horizon(chosen time.Duration) time.Duration {
	type maxDelayer interface{ MaxDelay() time.Duration }
	if md, ok := e.active.(maxDelayer); ok {
		if h := md.MaxDelay(); h > chosen {
			return h
		}
	}
	return chosen
}

// run drives the replay loop off the burst window: one burst at a time,
// opening a batching episode whenever the active policy finds the radio
// idle at a burst arrival. Without an active policy the burst structure is
// irrelevant — packets are processed strictly in arrival order either way —
// so the replay streams packets straight off the source instead of paying
// burst assembly and window bookkeeping per packet.
func (e *Engine) run() error {
	if e.active == nil && !e.forceGeneric {
		return e.runDirect()
	}
	for {
		b, ok, err := e.window.burst(0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}

		if e.active != nil {
			// Radio idle at this arrival? Fix the pending decision using
			// the burst arrival as the next-packet estimate.
			e.ensureDecision(b.Start)
			if !e.started || b.Start > e.idleAt() {
				if err := e.batch(b); err != nil {
					return err
				}
				continue
			}
		}

		e.processPackets(b.Packets)
		e.window.drop(1)
	}
	e.finish()
	return nil
}

// runDirect is the no-batching replay loop: packets are pulled one at a
// time through the window's validator (so invalid input fails with exactly
// the errors the burst path reports, at the same packet) and stepped
// directly. No burst is ever assembled and nothing is buffered. Validated
// packets are monotone in time and never shifted, so the clamp in
// processPackets cannot fire and is skipped.
func (e *Engine) runDirect() error {
	for {
		p, ok, err := e.window.pull()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		e.step(p.T, p)
	}
	e.finish()
	return nil
}

// batch opens a batching window at burst b (the window's first burst),
// looks ahead through the window for the bursts inside the batching delay
// and the learning horizon, and processes the batched group.
func (e *Engine) batch(b trace.Burst) error {
	d := e.active.Delay(b.Start)
	if d < 0 {
		d = 0
	}
	release := b.Start + d
	group := append(e.group[:0], b)
	for {
		nb, ok, err := e.window.burst(len(group))
		if err != nil {
			return err
		}
		if !ok || nb.Start >= release {
			break
		}
		group = append(group, nb)
	}
	// Feed the learner all arrivals within its horizon, including those
	// beyond the chosen window: the device observes traffic regardless,
	// so counterfactual experts can be scored. The slice is scratch: the
	// policy must not retain it past the ObserveEpisode call.
	hor := e.horizon(d)
	arrivals := e.arrivals[:0]
	for k := 0; ; k++ {
		nb, ok, err := e.window.burst(k)
		if err != nil {
			return err
		}
		if !ok || nb.Start > b.Start+hor {
			break
		}
		arrivals = append(arrivals, nb.Start-b.Start)
	}
	e.arrivals = arrivals
	e.active.ObserveEpisode(d, arrivals)

	// Shift each grouped burst to the release point and merge. Each burst's
	// packets are already time-sorted, so the concatenation is a sequence of
	// sorted runs; a stable in-place merge of those runs produces exactly
	// the order sort.SliceStable computed here before — by (timestamp,
	// append position) — without the per-episode closure allocation.
	merged := e.merged[:0]
	runs := e.runs[:0]
	for _, g := range group {
		delta := release - g.Start
		e.res.BurstDelays = append(e.res.BurstDelays, delta)
		runs = append(runs, len(merged))
		for _, p := range g.Packets {
			p.T += delta
			merged = append(merged, p)
		}
	}
	merged = e.mergeRuns(merged, runs)
	e.res.Episodes++
	if e.opts.recordEpisodes() {
		e.res.EpisodeLog = append(e.res.EpisodeLog, Episode{At: b.Start, Delay: d, Buffered: len(group)})
	}
	e.group, e.merged = group, merged
	e.processPackets(merged)
	e.window.drop(len(group))
	return nil
}

// mergeRuns stable-merges the time-sorted runs laid out consecutively in
// buf (runs holds each run's start offset) and returns the sorted slice.
// Adjacent runs merge pairwise, bottom-up, ties taking the earlier run's
// packet first — precisely the (timestamp, original position) order a
// stable sort of the concatenation yields, so the episode's packet order
// is bit-identical to the sort.SliceStable this replaces. The ping-pong
// scratch buffers are the engine's, swapped in tandem with the caller's,
// so steady state allocates nothing (the closure-per-episode the stable
// sort cost is gone entirely).
func (e *Engine) mergeRuns(buf trace.Trace, runs []int) trace.Trace {
	alt, altRuns := e.mergeTmp, e.runsTmp
	for len(runs) > 1 {
		out := alt[:0]
		next := altRuns[:0]
		for i := 0; i < len(runs); i += 2 {
			lo := runs[i]
			next = append(next, len(out))
			if i+1 == len(runs) {
				out = append(out, buf[lo:]...)
				break
			}
			mid, hi := runs[i+1], len(buf)
			if i+2 < len(runs) {
				hi = runs[i+2]
			}
			a, b := buf[lo:mid], buf[mid:hi]
			for len(a) > 0 && len(b) > 0 {
				if b[0].T < a[0].T {
					out = append(out, b[0])
					b = b[1:]
				} else {
					out = append(out, a[0])
					a = a[1:]
				}
			}
			out = append(out, a...)
			out = append(out, b...)
		}
		buf, alt = out, buf
		runs, altRuns = next, runs
	}
	e.runs, e.runsTmp = runs[:0], altRuns[:0]
	e.mergeTmp = alt
	return buf
}

// processPackets feeds packets through the per-gap accounting. Packets may
// precede the engine clock slightly when a batching release overlaps the
// next burst; such packets are clamped to the clock (they arrive while the
// radio is certainly active, so only their data energy matters).
func (e *Engine) processPackets(pkts trace.Trace) {
	for _, p := range pkts {
		t := p.T
		if e.started && t < e.lastT {
			t = e.lastT
		}
		e.step(t, p)
	}
}

// step processes one packet at (possibly clamped) time t.
func (e *Engine) step(t time.Duration, p trace.Packet) {
	if !e.started {
		// The radio begins Idle: the first packet pays a promotion.
		e.acct.promote(&e.rates)
		e.started = true
	} else {
		e.ensureDecision(t)
		gap := t - e.lastT
		demoted := e.acct.accountGap(&e.rates, e.pending, gap, e.lastTx)
		if e.recDec {
			e.res.Decisions = append(e.res.Decisions, GapDecision{
				At: e.lastT, Gap: gap, Wait: e.pending, Demoted: demoted,
			})
		}
		e.demote.Observe(gap)
	}
	tx, j := e.tx.tx(&e.prof, p)
	e.dataJ += j

	e.lastT = t
	e.lastTx = tx
	e.packets++
	e.decided = false // the decision for this packet's gap is made lazily
}

// finish settles the trailing tail after the last packet.
func (e *Engine) finish() {
	if !e.started {
		return
	}
	e.ensureDecision(policy.Never)
	e.acct.finish(&e.rates, e.pending, e.lastTx)
}
