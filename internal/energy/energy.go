// Package energy implements the paper's energy mathematics (§4.1, Fig. 5):
// the piecewise inter-packet energy function E(t), tail energy, and the
// demotion threshold t_threshold at which triggering fast dormancy becomes
// cheaper than riding the inactivity timers.
//
// All functions take a power.Profile and express energy in joules. They are
// pure functions of their inputs — the stateful radio accounting lives in
// internal/rrc and internal/sim.
package energy

import (
	"math"
	"time"

	"repro/internal/power"
)

// TailJ returns the energy spent keeping the radio in its timer-controlled
// tail for a duration d after the last packet: Active-tail power for up to
// t1 seconds, then high-power-idle power for up to t2 more, then nothing.
// This is the integral of the Fig. 5 power profile from 0 to d, excluding
// any switch energy.
func TailJ(p *power.Profile, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	t1 := p.T1.Seconds()
	t2 := p.T2.Seconds()
	t := d.Seconds()

	inT1 := math.Min(t, t1)
	e := inT1 * p.T1MW / 1000
	if t > t1 {
		inT2 := math.Min(t-t1, t2)
		e += inT2 * p.T2MW / 1000
	}
	return e
}

// GapJ is the paper's E(t): the energy the status-quo RRC protocol consumes
// between two packets separated by t. For t <= t1+t2 it is pure tail energy;
// beyond that, the tail saturates and the device additionally pays Eswitch
// for the demotion to Idle and the later promotion back to Active.
func GapJ(p *power.Profile, t time.Duration) float64 {
	if t <= p.Tail() {
		return TailJ(p, t)
	}
	return TailJ(p, p.Tail()) + p.SwitchJ()
}

// Threshold computes t_threshold (§4.1): the smallest gap for which
// demoting the radio immediately after a packet (paying Eswitch) beats
// keeping it in the tail (paying E(t)). Because E is monotonically
// non-decreasing, the threshold is unique.
//
// Piecewise inversion of E(t) = Eswitch:
//
//	Eswitch <= t1*Pt1            -> t* = Eswitch/Pt1
//	Eswitch <= t1*Pt1 + t2*Pt2   -> t* = t1 + (Eswitch - t1*Pt1)/Pt2
//	otherwise                    -> t* = t1 + t2 (past which E jumps by Eswitch)
func Threshold(p *power.Profile) time.Duration {
	eswitch := p.SwitchJ()
	t1 := p.T1.Seconds()
	t2 := p.T2.Seconds()
	pt1 := p.T1MW / 1000
	pt2 := p.T2MW / 1000

	if eswitch <= t1*pt1 {
		return secs(eswitch / pt1)
	}
	// The products are rounded explicitly so no target fuses them into
	// a multiply-add.
	if t2 > 0 && eswitch <= float64(t1*pt1)+float64(t2*pt2) {
		return secs(t1 + (eswitch-float64(t1*pt1))/pt2)
	}
	return p.Tail()
}

// TxJ returns the data energy for one packet: its modelled transmission time
// at the profile's link rate multiplied by the direction's bulk-transfer
// power (§6.1's "energy consumed per second" model).
func TxJ(p *power.Profile, size int, uplink bool) float64 {
	_, j := Tx(p, size, uplink)
	return j
}

// Tx returns one packet's transmission time and its data energy, TxJ
// computed from that same time.
func Tx(p *power.Profile, size int, uplink bool) (time.Duration, float64) {
	t := p.TxTime(size, uplink)
	return t, t.Seconds() * p.TxPowerMW(uplink) / 1000
}

// Breakdown splits the energy of a radio period into the categories of
// Fig. 1. Values are joules.
type Breakdown struct {
	DataJ   float64 // transmitting or receiving packets
	T1TailJ float64 // idling in the Active/DCH tail ("DCH Timer")
	T2TailJ float64 // idling in the high-power-idle/FACH tail ("FACH Timer")
	SwitchJ float64 // demotion + promotion signaling ("State Switch")
}

// Total returns the sum of all categories.
func (b Breakdown) Total() float64 {
	return b.DataJ + b.T1TailJ + b.T2TailJ + b.SwitchJ
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.DataJ += o.DataJ
	b.T1TailJ += o.T1TailJ
	b.T2TailJ += o.T2TailJ
	b.SwitchJ += o.SwitchJ
}

// Fractions returns each category as a fraction of the total (all zero for
// an empty breakdown).
func (b Breakdown) Fractions() (data, t1, t2, sw float64) {
	tot := b.Total()
	if tot == 0 {
		return 0, 0, 0, 0
	}
	return b.DataJ / tot, b.T1TailJ / tot, b.T2TailJ / tot, b.SwitchJ / tot
}

// TailBreakdown splits tail time d into the T1 and T2 stages, returning the
// energy of each (the same split TailJ integrates).
func TailBreakdown(p *power.Profile, d time.Duration) (t1J, t2J float64) {
	if d <= 0 {
		return 0, 0
	}
	t1 := p.T1.Seconds()
	t2 := p.T2.Seconds()
	t := d.Seconds()
	t1J = math.Min(t, t1) * p.T1MW / 1000
	if t > t1 {
		t2J = math.Min(t-t1, t2) * p.T2MW / 1000
	}
	return t1J, t2J
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
