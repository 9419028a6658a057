package sim

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
)

// ConstWait reports the dormancy wait a demote policy decides at every
// gap when it is one of the stateless constant-wait built-ins (StatusQuo,
// FixedTail, PercentileIAT): their Observe is a no-op and their Decide a
// constant, so a replay may skip both calls. A negative wait reads as 0,
// the engine's clamp; a wait beyond the profile's tail is returned as is
// (the accounting caps it at the tail). RunSourceInto devirtualizes
// through it, and callers use it to route a policy to RunWaits.
func ConstWait(d policy.DemotePolicy) (time.Duration, bool) {
	var w time.Duration
	switch d := d.(type) {
	case policy.StatusQuo:
		w = policy.Never
	case *policy.FixedTail:
		w = d.Wait
	case *policy.PercentileIAT:
		w = d.Wait()
	default:
		return 0, false
	}
	return max(w, 0), true
}

// RunWaits replays src once under every constant dormancy wait in waits,
// with no batching, writing one Result per wait into out (len(out) must
// equal len(waits)). Each out[i] holds exactly the scalars RunSourceInto
// yields for a constant-wait policy deciding waits[i] — the same Breakdown
// floats, counts, Packets and Duration, bit for bit — with Policy left
// empty for the caller to stamp and every slice nil. Waits clamp as the
// engine clamps them: below 0 to 0, beyond prof.Tail() to the tail, and
// duplicates are allowed.
//
// Every packet is pulled once, through the same validator as a replay, so
// invalid input fails with the same error at the same packet. Its data
// energy and transmission time are computed once and every wait's tally
// steps over it, in the engine's order of float operations. opts may not
// ask for decision or episode logs, which are per-policy records; on
// error out is left in an unspecified state.
func (e *Engine) RunWaits(src trace.Source, prof power.Profile, waits []time.Duration, opts *Options, out []Result) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	if src == nil {
		return fmt.Errorf("sim: source is nil")
	}
	if len(out) != len(waits) {
		return fmt.Errorf("sim: %d results for %d waits", len(out), len(waits))
	}
	if opts.recordDecisions() || opts.recordEpisodes() {
		return fmt.Errorf("sim: RunWaits records no decisions or episodes")
	}

	e.Reset()
	e.rates = newRates(&prof)
	ws := e.waits[:0]
	for _, w := range waits {
		ws = append(ws, min(max(w, 0), e.rates.tail))
	}
	tallies := e.tallies[:0]
	for range waits {
		tallies = append(tallies, tally{})
	}
	e.waits, e.tallies = ws, tallies

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
			for i := range tallies {
				tallies[i].promote(&e.rates)
			}
			started = true
		} else {
			gap := p.T - lastT
			for i := range tallies {
				tallies[i].accountGap(&e.rates, ws[i], gap, lastTx)
			}
		}
		up := p.Dir == trace.Out
		dataJ += energy.TxJ(&prof, p.Size, up)
		lastT = p.T
		lastTx = prof.TxTime(p.Size, up)
		packets++
	}

	for i := range out {
		if started {
			tallies[i].finish(&e.rates, ws[i], lastTx)
		}
		out[i] = Result{Profile: prof.Name, Packets: packets, Duration: lastT}
		tallies[i].settle(&out[i], dataJ)
	}
	e.Reset()
	return nil
}
