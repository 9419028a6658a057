package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
)

// Wait is a wait rule: how a recognized built-in demote policy picks its
// dormancy wait at every gap, as a comparable value. There are two kinds:
//
//   - a constant wait D (StatusQuo decides policy.Never, FixedTail its
//     wait, a fitted PercentileIAT its quantile), whatever the gap;
//   - the Oracle rule with threshold D: wait 0 when the closing gap
//     exceeds D, policy.Never otherwise. The gap after the last packet is
//     policy.Never, so the rule demotes at once there unless D is Never.
//
// A rule decides exactly what its policy's Decide returns, so the engine
// replays a recognized policy without calling it and RunWaits replays
// many rules in one pass.
type Wait struct {
	// Oracle selects the clairvoyant rule; D is then its threshold.
	Oracle bool
	// D is the constant wait, or the Oracle's threshold.
	D time.Duration
}

// WaitOf recognizes the stateless built-in demote policies whose every
// decision is a wait rule: StatusQuo, FixedTail and PercentileIAT (their
// Observe is a no-op and their Decide a constant) and the Oracle (its
// Decide reads only the upcoming gap). A negative constant wait reads as
// 0, the engine's clamp; a wait beyond the profile's tail is returned as
// is (the accounting caps it at the tail; see Clamped). RunSourceInto
// replays a recognized policy without batching or logs through RunWaits,
// and callers use it to route many policies to one RunWaits pass.
func WaitOf(d policy.DemotePolicy) (Wait, bool) {
	switch d := d.(type) {
	case policy.StatusQuo:
		return Wait{D: policy.Never}, true
	case *policy.FixedTail:
		return Wait{D: max(d.Wait, 0)}, true
	case *policy.PercentileIAT:
		return Wait{D: max(d.Wait(), 0)}, true
	case *policy.Oracle:
		return Wait{Oracle: true, D: d.Threshold}, true
	}
	return Wait{}, false
}

// Clamped maps the rule onto its canonical form under a profile with the
// given tail: a constant wait clamps to [0, tail], the range over which
// waits replay differently, and an Oracle rule is returned as is. Two
// rules with equal clamped forms replay identically.
func (r Wait) Clamped(tail time.Duration) Wait {
	if !r.Oracle {
		r.D = min(max(r.D, 0), tail)
	}
	return r
}

// decide returns the wait the rule picks for a closing gap (policy.Never
// after the last packet), exactly what its policy's Decide returns.
func (r Wait) decide(gap time.Duration) time.Duration {
	if !r.Oracle {
		return r.D
	}
	if gap > r.D {
		return 0
	}
	return policy.Never
}

// WaitSet is one profile's wait rules in a RunWaits pass.
type WaitSet struct {
	Prof  power.Profile
	Rules []Wait
}

// RunWaits replays src once under every wait rule of every set, with no
// batching, writing one Result per rule into out: out[g][i] for
// sets[g].Rules[i] (len(out) must equal len(sets), and each len(out[g])
// len(sets[g].Rules)). Each Result holds exactly the scalars
// RunSourceInto yields for sets[g].Prof and the policy the rule
// recognizes — the same Breakdown floats, counts, Packets and Duration,
// bit for bit — with Policy left empty for the caller to stamp and every
// slice nil. Constant waits clamp as the engine clamps them (below 0 to
// 0, beyond the set's tail to the tail), and duplicates are allowed, of
// rules and of profiles.
//
// Every packet is pulled once, through the same validator as a replay, so
// invalid input fails with the same error at the same packet, and one
// decode serves every profile. Each set keeps its own coefficients, last
// transmission time, data energy and tallies, and steps them exactly as a
// one-set pass would: every accumulator sees the same float operations in
// the same order. Within a set, a packet's data energy and transmission
// time are computed once, and so is each gap's tail energy for the rules
// that ride the gap out: a rule that does not demote in a gap charges
// tailBreakdown(gap - lastTx), the same operands whatever its wait, so
// one evaluation serves them all. Only the rules that demote charge their
// own wait's tail. opts may not ask for decision or episode logs, which
// are per-policy records; on error out is left in an unspecified state.
//
// The pass keeps each set's constant rules sorted by clamped wait, apart
// from its Oracle rules, so a gap splits them into a demoting prefix and
// a riding-out suffix without a branch per rule; each rule's tally still
// sees only its own operations, in packet order, so the order of the
// tallies changes no float. A set's last transmission per direction
// is memoized on its exact operands (txMemo), which returns the very
// floats energy.Tx would.
func (e *Engine) RunWaits(src trace.Source, sets []WaitSet, opts *Options, out [][]Result) error {
	for i := range sets {
		if err := sets[i].Prof.Validate(); err != nil {
			return err
		}
	}
	if src == nil {
		return fmt.Errorf("sim: source is nil")
	}
	if len(out) != len(sets) {
		return fmt.Errorf("sim: %d result sets for %d wait sets", len(out), len(sets))
	}
	for i := range sets {
		if len(out[i]) != len(sets[i].Rules) {
			return fmt.Errorf("sim: %d results for %d wait rules", len(out[i]), len(sets[i].Rules))
		}
	}
	if opts.recordDecisions() || opts.recordEpisodes() {
		return fmt.Errorf("sim: RunWaits records no decisions or episodes")
	}

	e.Reset()
	for i := range sets {
		e.addWaitGroup(sets[i].Prof, sets[i].Rules)
	}
	return e.replayWaits(src, opts, out)
}

// runWait replays src under one wait rule, as a one-rule RunWaits pass
// into res; Policy is left for the caller to stamp. The caller has
// checked what RunWaits checks.
func (e *Engine) runWait(res *Result, src trace.Source, prof power.Profile, w Wait, opts *Options) error {
	e.Reset()
	e.addWaitGroup(prof, []Wait{w})
	var out [1]Result
	if err := e.replayWaits(src, opts, [][]Result{out[:]}); err != nil {
		return err
	}
	*res = out[0]
	return nil
}

// addWaitGroup appends one WaitSet's group and rule tallies to the
// engine's RunWaits state.
func (e *Engine) addWaitGroup(prof power.Profile, rules []Wait) {
	rs := e.rules
	g := waitGroup{prof: prof, tx: newTxMemo(), lo: len(rs)}
	g.rates = newRates(&g.prof)
	for pos, r := range rules {
		if !r.Oracle {
			rs = append(rs, ruleTally{rule: r.Clamped(g.rates.tail), pos: pos})
		}
	}
	slices.SortFunc(rs[g.lo:], func(a, b ruleTally) int { return cmp.Compare(a.rule.D, b.rule.D) })
	g.mid = len(rs)
	for pos, r := range rules {
		if r.Oracle {
			rs = append(rs, ruleTally{rule: r, pos: pos})
		}
	}
	g.hi = len(rs)
	e.waitGroups, e.rules = append(e.waitGroups, g), rs
}

// replayWaits is the RunWaits pass over the groups addWaitGroup built.
func (e *Engine) replayWaits(src trace.Source, opts *Options, out [][]Result) error {
	gs, rs := e.waitGroups, e.rules
	e.window.reset(src, opts.burstGap())
	var (
		started bool
		lastT   time.Duration
		packets int
	)
	for {
		p, ok, err := e.window.pull()
		if err != nil {
			e.Reset()
			return err
		}
		if !ok {
			break
		}
		gap := p.T - lastT
		for k := range gs {
			g := &gs[k]
			if !started {
				// The radio begins Idle: the first packet pays a promotion.
				for i := g.lo; i < g.hi; i++ {
					rs[i].promote(&g.rates)
				}
			} else {
				g.account(rs, gap)
			}
			tx, j := g.tx.tx(&g.prof, p)
			g.dataJ += j
			g.lastTx = tx
		}
		started = true
		lastT = p.T
		packets++
	}

	for k := range gs {
		g := &gs[k]
		for i := g.lo; i < g.hi; i++ {
			r := &rs[i]
			if started {
				r.finish(&g.rates, r.rule.decide(policy.Never), g.lastTx)
			}
			res := &out[k][r.pos]
			*res = Result{Profile: g.prof.Name, Packets: packets, Duration: lastT}
			r.settle(res, g.dataJ)
		}
	}
	e.Reset()
	return nil
}

// account charges the gap that just closed to every rule of the group.
func (g *waitGroup) account(rs []ruleTally, gap time.Duration) {
	consts, oracles := rs[g.lo:g.mid], rs[g.mid:g.hi]
	// Sorted by wait: the constant rules shorter than the gap demote.
	n := 0
	for n < len(consts) && consts[n].rule.D < gap {
		consts[n].demote(&g.rates, consts[n].rule.D, g.lastTx)
		n++
	}
	ride := consts[n:]
	// A gap past the tail demotes under every rule, so the shared
	// ride-out energy is only needed for shorter ones that some rule
	// may ride out.
	tail := g.rates.tail
	var t1J, t2J float64
	if gap <= tail && (len(ride) > 0 || len(oracles) > 0) {
		t1J, t2J = g.rates.tailBreakdown(max(gap-g.lastTx, 0))
	}
	for i := range ride {
		ride[i].t1J += t1J
		ride[i].t2J += t2J
	}
	for i := range oracles {
		r := &oracles[i]
		if w := min(r.rule.decide(gap), tail); gap > w {
			r.demote(&g.rates, w, g.lastTx)
		} else {
			r.t1J += t1J
			r.t2J += t2J
		}
	}
}

// waitGroup is one WaitSet's accounting in a RunWaits pass: its profile
// and coefficients, the transmission time of the last packet, the data
// energy and its memo, and its rules' tallies, which are rules[lo:hi] of
// the engine: the constant rules by wait in [lo:mid], the Oracle rules
// in [mid:hi].
type waitGroup struct {
	prof        power.Profile
	rates       rates
	tx          txMemo
	lastTx      time.Duration
	dataJ       float64
	lo, mid, hi int
}

// ruleTally is one rule's accounting in a RunWaits pass: the rule and
// its position in its WaitSet.
type ruleTally struct {
	tally
	rule Wait // clamped
	pos  int
}
