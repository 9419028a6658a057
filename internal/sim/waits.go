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

// RunWaits replays src once under every wait rule in rules, with no
// batching, writing one Result per rule into out (len(out) must equal
// len(rules)). Each out[i] holds exactly the scalars RunSourceInto yields
// for the policy rules[i] recognizes — the same Breakdown floats, counts,
// Packets and Duration, bit for bit — with Policy left empty for the
// caller to stamp and every slice nil. Constant waits clamp as the engine
// clamps them (below 0 to 0, beyond prof.Tail() to the tail), and
// duplicates are allowed.
//
// Every packet is pulled once, through the same validator as a replay, so
// invalid input fails with the same error at the same packet. Its data
// energy and transmission time are computed once, and so is each gap's
// tail energy for the rules that ride the gap out: a rule that does not
// demote in a gap charges tailBreakdown(gap - lastTx), the same operands
// whatever its wait, so one evaluation serves them all. Only the rules
// that demote charge their own wait's tail. opts may not ask for decision
// or episode logs, which are per-policy records; on error out is left in
// an unspecified state.
func (e *Engine) RunWaits(src trace.Source, prof power.Profile, rules []Wait, opts *Options, out []Result) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	if src == nil {
		return fmt.Errorf("sim: source is nil")
	}
	if len(out) != len(rules) {
		return fmt.Errorf("sim: %d results for %d wait rules", len(out), len(rules))
	}
	if opts.recordDecisions() || opts.recordEpisodes() {
		return fmt.Errorf("sim: RunWaits records no decisions or episodes")
	}

	e.Reset()
	e.rates = newRates(&prof)
	tail := e.rates.tail
	rs := e.rules[:0]
	for _, r := range rules {
		rs = append(rs, ruleTally{rule: r.Clamped(tail)})
	}
	e.rules = rs

	e.window.reset(src, opts.burstGap())
	var (
		started       bool
		lastT, lastTx time.Duration
		dataJ         float64
		packets       int
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
		if !started {
			// The radio begins Idle: the first packet pays a promotion.
			for i := range rs {
				rs[i].promote(&e.rates)
			}
			started = true
		} else {
			gap := p.T - lastT
			// A gap past the tail demotes under every rule, so the shared
			// ride-out energy is only needed for shorter ones.
			var t1J, t2J float64
			if gap <= tail {
				t1J, t2J = e.rates.tailBreakdown(max(gap-lastTx, 0))
			}
			for i := range rs {
				r := &rs[i]
				w := r.rule.D
				if r.rule.Oracle {
					w = min(r.rule.decide(gap), tail)
				}
				if gap > w {
					r.demote(&e.rates, w, lastTx)
				} else {
					r.t1J += t1J
					r.t2J += t2J
				}
			}
		}
		up := p.Dir == trace.Out
		dataJ += energy.TxJ(&prof, p.Size, up)
		lastT = p.T
		lastTx = prof.TxTime(p.Size, up)
		packets++
	}

	for i := range out {
		r := &rs[i]
		if started {
			r.finish(&e.rates, r.rule.decide(policy.Never), lastTx)
		}
		out[i] = Result{Profile: prof.Name, Packets: packets, Duration: lastT}
		r.settle(&out[i], dataJ)
	}
	e.Reset()
	return nil
}

// ruleTally is one rule's accounting in a RunWaits pass.
type ruleTally struct {
	tally
	rule Wait // clamped
}
