package sim

import (
	"time"

	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/trace"
)

// rates are a replay's accounting coefficients, precomputed once per run
// so the per-gap hot path does no profile-method calls. The tail-stage
// values keep the exact operand order of energy.TailBreakdown (only the
// Duration->seconds conversions are hoisted, which is the same float), so
// the accounting is bit-identical to the generic helpers.
type rates struct {
	tail       time.Duration // T1+T2: the timers demote here regardless
	t1s, t2s   float64       // T1/T2 timer lengths in seconds
	t1MW, t2MW float64       // tail-stage powers
	dormJ      float64       // fast-dormancy demotion energy
	promJ      float64       // promotion energy
	promDelay  time.Duration
}

func newRates(p *power.Profile) rates {
	return rates{
		tail: p.Tail(),
		t1s:  p.T1.Seconds(), t2s: p.T2.Seconds(),
		t1MW: p.T1MW, t2MW: p.T2MW,
		dormJ: p.DormancyJ(), promJ: p.PromotionJ(),
		promDelay: p.PromotionDelay,
	}
}

// tailBreakdown is energy.TailBreakdown against the precomputed
// coefficients: the operand order matches the generic helper exactly, so
// the energies are the same floats bit for bit. The builtin min has
// math.Min's results for every operand, NaN and signed zeros included, and
// inlines.
func (r *rates) tailBreakdown(d time.Duration) (t1J, t2J float64) {
	if d <= 0 {
		return 0, 0
	}
	t := d.Seconds()
	t1J = min(t, r.t1s) * r.t1MW / 1000
	if t > r.t1s {
		t2J = min(t-r.t1s, r.t2s) * r.t2MW / 1000
	}
	return t1J, t2J
}

// tally is one replay's scalar accounting: what a sequence of dormancy
// waits costs in tail and switch energy, state switches and promotion
// delay. The data energy is not part of it, because it depends on the
// packets alone. The engine drives one tally per replay; RunWaits drives
// one per wait over a single pull of the packets. Both make the same
// calls in the same order, so every field is the same float or count.
type tally struct {
	t1J, t2J, switchJ float64
	promotions        int
	demotions         int
	promotedPackets   int
	promDelay         time.Duration
}

// promote charges one Idle->Active promotion and its packet delay.
func (a *tally) promote(r *rates) {
	a.switchJ += r.promJ
	a.promotions++
	a.promotedPackets++
	a.promDelay += r.promDelay
}

// accountGap charges the gap that just closed under dormancy wait w and
// reports whether the radio demoted in it.
func (a *tally) accountGap(r *rates, w, gap, lastTx time.Duration) bool {
	w = min(w, r.tail) // the timers demote at the tail end regardless
	if gap > w {
		a.demote(r, w, lastTx)
		return true
	}
	// The first lastTx of the gap is transmission time, already charged at
	// full power as data energy; only the remainder idles in the tail.
	t1J, t2J := r.tailBreakdown(max(gap-lastTx, 0))
	a.t1J += t1J
	a.t2J += t2J
	return false
}

// demote charges a gap the radio demotes in after riding out the wait w
// (at most the tail): the tail from the end of the last transmission to
// the demotion, the demotion and the promotion the next packet pays.
func (a *tally) demote(r *rates, w, lastTx time.Duration) {
	t1J, t2J := r.tailBreakdown(max(w-lastTx, 0))
	a.t1J += t1J
	a.t2J += t2J
	a.switchJ += r.dormJ
	a.demotions++
	a.promote(r)
}

// finish settles the trailing tail after the last packet: the radio rides
// out min(w, tail) and demotes (no promotion follows).
func (a *tally) finish(r *rates, w, lastTx time.Duration) {
	w = min(w, r.tail) - lastTx
	if w < 0 {
		w = 0
	}
	t1J, t2J := r.tailBreakdown(w)
	a.t1J += t1J
	a.t2J += t2J
	a.switchJ += r.dormJ
	a.demotions++
}

// settle writes the tally and the run's data energy into res.
func (a *tally) settle(res *Result, dataJ float64) {
	res.Breakdown.DataJ = dataJ
	res.Breakdown.T1TailJ = a.t1J
	res.Breakdown.T2TailJ = a.t2J
	res.Breakdown.SwitchJ = a.switchJ
	res.Promotions = a.promotions
	res.Demotions = a.demotions
	res.PromotedPackets = a.promotedPackets
	res.PromotionDelayTotal = a.promDelay
}

// txMemo remembers, per direction, the last packet size a profile
// transmitted and what energy.Tx returned for it. energy.Tx is a pure
// function of (profile, size, direction), so a packet of the same size
// and direction reuses the same two values: the same floats, computed
// once. A replay's packets run in MTU-sized and ACK-sized streaks, so
// most packets hit. newTxMemo is empty; the zero value is not.
type txMemo [2]struct {
	size int
	t    time.Duration
	j    float64
}

// newTxMemo returns an empty memo: no packet has a negative size.
func newTxMemo() txMemo {
	var m txMemo
	m[trace.Out].size, m[trace.In].size = -1, -1
	return m
}

// tx returns the transmission time and data energy of a validated packet
// under prof, which must be the profile of every earlier call since
// newTxMemo.
func (m *txMemo) tx(prof *power.Profile, p trace.Packet) (time.Duration, float64) {
	c := &m[p.Dir]
	if c.size != p.Size {
		c.size = p.Size
		c.t, c.j = energy.Tx(prof, p.Size, p.Dir == trace.Out)
	}
	return c.t, c.j
}
