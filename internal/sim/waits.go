package sim

import (
	"fmt"
	"time"

	"repro/internal/energy"
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
// devirtualizes through it, and callers use it to route a policy to
// RunWaits.
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
	gs, rs := e.waitGroups[:0], e.rules[:0]
	for i := range sets {
		g := waitGroup{prof: sets[i].Prof, lo: len(rs)}
		g.rates = newRates(&g.prof)
		for _, r := range sets[i].Rules {
			rs = append(rs, ruleTally{rule: r.Clamped(g.rates.tail)})
		}
		g.hi = len(rs)
		gs = append(gs, g)
	}
	e.waitGroups, e.rules = gs, rs

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
		up := p.Dir == trace.Out
		for k := range gs {
			g := &gs[k]
			rules := rs[g.lo:g.hi]
			if !started {
				// The radio begins Idle: the first packet pays a promotion.
				for i := range rules {
					rules[i].promote(&g.rates)
				}
			} else {
				// A gap past the tail demotes under every rule, so the
				// shared ride-out energy is only needed for shorter ones.
				tail := g.rates.tail
				var t1J, t2J float64
				if gap <= tail {
					t1J, t2J = g.rates.tailBreakdown(max(gap-g.lastTx, 0))
				}
				for i := range rules {
					r := &rules[i]
					w := r.rule.D
					if r.rule.Oracle {
						w = min(r.rule.decide(gap), tail)
					}
					if gap > w {
						r.demote(&g.rates, w, g.lastTx)
					} else {
						r.t1J += t1J
						r.t2J += t2J
					}
				}
			}
			g.dataJ += energy.TxJ(&g.prof, p.Size, up)
			g.lastTx = g.prof.TxTime(p.Size, up)
		}
		started = true
		lastT = p.T
		packets++
	}

	for k := range gs {
		g := &gs[k]
		for i := range out[k] {
			r := &rs[g.lo+i]
			if started {
				r.finish(&g.rates, r.rule.decide(policy.Never), g.lastTx)
			}
			out[k][i] = Result{Profile: g.prof.Name, Packets: packets, Duration: lastT}
			r.settle(&out[k][i], g.dataJ)
		}
	}
	e.Reset()
	return nil
}

// waitGroup is one WaitSet's accounting in a RunWaits pass: its profile
// and coefficients, the transmission time of the last packet, the data
// energy, and its rules' tallies, which are rules[lo:hi] of the engine.
type waitGroup struct {
	prof   power.Profile
	rates  rates
	lastTx time.Duration
	dataJ  float64
	lo, hi int
}

// ruleTally is one rule's accounting in a RunWaits pass.
type ruleTally struct {
	tally
	rule Wait // clamped
}
