// Package basestation explores the paper's first future-work item (§8):
// what happens at the base station when many devices trigger fast
// dormancy. It simulates one cell with multiple attached devices, each
// replaying its own trace under its own demotion policy, and lets the
// station apply a Release-8-style admission policy to fast-dormancy
// requests ("the mobile device first sends a fast dormancy request, and
// the base station will decide to release the channel or not", §2.2).
//
// The station counts signaling events (promotions and demotions each cost
// the cell control-channel messages) in fixed windows, so experiments can
// plot aggregate signaling load against the number of devices and compare
// always-grant against rate-limited admission.
package basestation

import (
	"container/heap"
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/rrc"
	"repro/internal/trace"
)

// Device is one phone attached to the cell.
type Device struct {
	// Name identifies the device in results.
	Name string
	// Trace is the device's packet schedule.
	Trace trace.Trace
	// Demote is the device's dormancy policy (nil = status quo).
	Demote policy.DemotePolicy
}

// AdmissionPolicy is the station's fast-dormancy arbiter.
type AdmissionPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Grant decides whether a dormancy request at now is honored, given
	// the number of signaling events the cell handled in the current
	// accounting window.
	Grant(now time.Duration, windowSignals int) bool
}

// AlwaysGrant models the paper's simplifying assumption: every request is
// honored.
type AlwaysGrant struct{}

// Name implements AdmissionPolicy.
func (AlwaysGrant) Name() string { return "always-grant" }

// Grant implements AdmissionPolicy.
func (AlwaysGrant) Grant(time.Duration, int) bool { return true }

// RateLimit grants requests only while the current window's signaling
// count is below a budget — a plausible network-controlled fast dormancy.
type RateLimit struct {
	// MaxPerWindow is the signaling budget per accounting window.
	MaxPerWindow int
}

// Name implements AdmissionPolicy.
func (r RateLimit) Name() string { return fmt.Sprintf("rate-limit(%d)", r.MaxPerWindow) }

// Grant implements AdmissionPolicy.
func (r RateLimit) Grant(_ time.Duration, windowSignals int) bool {
	return windowSignals < r.MaxPerWindow
}

// DeviceResult summarises one device's run.
type DeviceResult struct {
	Name        string
	EnergyJ     float64
	Promotions  int
	Demotions   int
	Denied      int // dormancy requests the station refused
	IdleSeconds float64
}

// WindowCount is one accounting window's signaling volume.
type WindowCount struct {
	Start   time.Duration
	Signals int
}

// Result is the outcome of a cell simulation.
type Result struct {
	Admission    string
	Devices      []DeviceResult
	Windows      []WindowCount
	TotalSignals int
	TotalDenied  int
}

// PeakSignals returns the largest per-window signaling count.
func (r *Result) PeakSignals() int {
	peak := 0
	for _, w := range r.Windows {
		if w.Signals > peak {
			peak = w.Signals
		}
	}
	return peak
}

// TotalEnergyJ sums device energies.
func (r *Result) TotalEnergyJ() float64 {
	var s float64
	for _, d := range r.Devices {
		s += d.EnergyJ
	}
	return s
}

// event is one entry in the cell's time-ordered queue.
type event struct {
	at   time.Duration
	dev  int
	kind eventKind
	// seq invalidates stale dormancy timers: a dormancy event only fires
	// if the device has seen no packet since it was scheduled.
	seq int
}

type eventKind uint8

const (
	evPacket eventKind = iota
	evDormancy
)

type eventQueue []event

func (q eventQueue) Len() int      { return len(q) }
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	// Packets before dormancy at the same instant: traffic wins.
	return q[i].kind == evPacket && q[j].kind == evDormancy
}
func (q *eventQueue) Push(x any) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// devState is the per-device simulation state.
type devState struct {
	machine *rrc.Machine
	demote  policy.DemotePolicy
	pktIdx  int
	lastPkt time.Duration
	sawPkt  bool
	seq     int
	denied  int
	dataJ   float64
}

// Simulate runs the cell. window sets the signaling accounting granularity
// (e.g. one minute). Devices' traces share a time origin.
func Simulate(prof power.Profile, devices []Device, admission AdmissionPolicy, window time.Duration) (*Result, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if admission == nil {
		admission = AlwaysGrant{}
	}
	if window <= 0 {
		window = time.Minute
	}
	states := make([]*devState, len(devices))
	var q eventQueue
	var horizon time.Duration
	for i, d := range devices {
		if err := d.Trace.Validate(); err != nil {
			return nil, fmt.Errorf("basestation: device %s: %w", d.Name, err)
		}
		m, err := rrc.New(prof, false)
		if err != nil {
			return nil, err
		}
		dem := d.Demote
		if dem == nil {
			dem = policy.StatusQuo{}
		}
		dem.Reset()
		states[i] = &devState{machine: m, demote: dem}
		if len(d.Trace) > 0 {
			heap.Push(&q, event{at: d.Trace[0].T, dev: i, kind: evPacket})
			if end := d.Trace.Duration(); end > horizon {
				horizon = end
			}
		}
	}

	res := &Result{Admission: admission.Name()}
	windowStart := time.Duration(0)
	windowSignals := 0
	rollWindow := func(now time.Duration) {
		for now >= windowStart+window {
			res.Windows = append(res.Windows, WindowCount{Start: windowStart, Signals: windowSignals})
			windowStart += window
			windowSignals = 0
		}
	}
	signal := func(now time.Duration, n int) {
		rollWindow(now)
		windowSignals += n
		res.TotalSignals += n
	}

	for q.Len() > 0 {
		ev := heap.Pop(&q).(event)
		st := states[ev.dev]
		switch ev.kind {
		case evPacket:
			promoBefore := st.machine.Promotions()
			demoBefore := st.machine.Demotions()
			st.machine.OnPacket(ev.at)
			// Timer demotions and the promotion both cost signaling.
			signal(ev.at, (st.machine.Promotions()-promoBefore)+(st.machine.Demotions()-demoBefore))

			p := devices[ev.dev].Trace[st.pktIdx]
			st.dataJ += energy.TxJ(&prof, p.Size, p.Dir == trace.Out)
			if st.sawPkt {
				st.demote.Observe(ev.at - st.lastPkt)
			}
			st.lastPkt = ev.at
			st.sawPkt = true
			st.seq++

			if w := st.demote.Decide(ev.at); w != policy.Never {
				if w < 0 {
					w = 0
				}
				heap.Push(&q, event{at: ev.at + w, dev: ev.dev, kind: evDormancy, seq: st.seq})
			}
			st.pktIdx++
			if st.pktIdx < len(devices[ev.dev].Trace) {
				heap.Push(&q, event{at: devices[ev.dev].Trace[st.pktIdx].T, dev: ev.dev, kind: evPacket})
			}
		case evDormancy:
			if ev.seq != st.seq {
				continue // canceled by newer traffic
			}
			st.machine.AdvanceTo(ev.at)
			if st.machine.State() == rrc.Idle {
				continue // timers got there first
			}
			rollWindow(ev.at)
			if admission.Grant(ev.at, windowSignals) {
				st.machine.FastDormancy(ev.at)
				signal(ev.at, 1)
			} else {
				st.denied++
				res.TotalDenied++
			}
		}
	}

	// Settle trailing tails and collect per-device accounting. Trailing
	// timer demotions are signaling too.
	end := horizon + prof.Tail() + time.Second
	for i, st := range states {
		demoBefore := st.machine.Demotions()
		st.machine.AdvanceTo(end)
		signal(end, st.machine.Demotions()-demoBefore)
		e := st.dataJ +
			st.machine.Residency(rrc.DCH).Seconds()*prof.T1MW/1000 +
			st.machine.Residency(rrc.FACH).Seconds()*prof.T2MW/1000 +
			float64(float64(st.machine.Promotions())*prof.PromotionJ()) +
			float64(float64(st.machine.Demotions())*prof.DormancyJ()) // rounded: no fused multiply-add
		res.Devices = append(res.Devices, DeviceResult{
			Name:        devices[i].Name,
			EnergyJ:     e,
			Promotions:  st.machine.Promotions(),
			Demotions:   st.machine.Demotions(),
			Denied:      st.denied,
			IdleSeconds: st.machine.Residency(rrc.Idle).Seconds(),
		})
	}
	// Flush the final (possibly partial) accounting window.
	rollWindow(end)
	res.Windows = append(res.Windows, WindowCount{Start: windowStart, Signals: windowSignals})
	return res, nil
}
