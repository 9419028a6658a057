package basestation

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/rrc"
	"repro/internal/trace"
)

// This file implements the paper's second §8 future-work item: "whether
// the base station can actively help the phone to make decisions on fast
// dormancy by buffering incoming traffic for the phone."
//
// DownlinkBuffering rewrites a device's trace the way a cooperating base
// station would: while the device's radio is Idle, *downlink* packets are
// held in the station's buffer and delivered together when either (a) the
// hold deadline expires, (b) the buffer exceeds a byte budget, or (c) the
// device itself transmits (uplink packets always wake the radio — the
// station cannot delay those). This is MakeActive's mirror image: the
// device batches session starts it controls; the station batches pushes it
// controls. Both trade bounded delay for shared promotions.

// BufferPolicy configures station-side downlink buffering.
type BufferPolicy struct {
	// Hold is the maximum time the station delays a downlink packet.
	Hold time.Duration
	// MaxBytes flushes the buffer early once this many bytes are held
	// (0 = unlimited within Hold).
	MaxBytes int
}

// Validate checks the policy.
func (b BufferPolicy) Validate() error {
	if b.Hold <= 0 {
		return fmt.Errorf("basestation: BufferPolicy.Hold must be positive")
	}
	if b.MaxBytes < 0 {
		return fmt.Errorf("basestation: BufferPolicy.MaxBytes must be >= 0")
	}
	return nil
}

// BufferResult reports a buffered replay.
type BufferResult struct {
	// Rewritten is the trace as the device saw it (downlink deliveries
	// possibly deferred).
	Rewritten trace.Trace
	// Delays holds the deferral of every buffered downlink packet.
	Delays []time.Duration
	// Flushes counts buffer deliveries (each is one promotion's worth of
	// downlink batched).
	Flushes int
	// EnergyJ and Promotions account the device's radio under the
	// rewritten trace with the given demote policy.
	EnergyJ    float64
	Promotions int
}

// DownlinkBuffering replays a device trace through a buffering station.
// The demote policy governs the device's dormancy (nil = status quo), so
// the station's view of "device idle" is consistent with the device's own
// behaviour.
func DownlinkBuffering(prof power.Profile, tr trace.Trace, demote policy.DemotePolicy, buf BufferPolicy) (*BufferResult, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := buf.Validate(); err != nil {
		return nil, err
	}
	if demote == nil {
		demote = policy.StatusQuo{}
	}
	demote.Reset()

	m, err := rrc.New(prof, false)
	if err != nil {
		return nil, err
	}
	res := &BufferResult{}

	type held struct {
		p        trace.Packet
		deadline time.Duration
	}
	var buffer []held
	var bufferedBytes int
	var lastPkt time.Duration
	sawPkt := false
	var dormancyAt time.Duration = policy.Never

	// deliver flushes the buffer at time t: all held packets reach the
	// device together.
	deliver := func(t time.Duration) {
		if len(buffer) == 0 {
			return
		}
		for _, h := range buffer {
			res.Delays = append(res.Delays, t-h.p.T)
			p := h.p
			p.T = t
			res.Rewritten = append(res.Rewritten, p)
		}
		buffer = buffer[:0]
		bufferedBytes = 0
		res.Flushes++
		// The delivery itself is traffic: radio promotes, timers reset.
		advanceDormancy(m, &dormancyAt, t, demote)
		m.OnPacket(t)
		if sawPkt {
			demote.Observe(t - lastPkt)
		}
		lastPkt = t
		sawPkt = true
		scheduleDormancy(&dormancyAt, t, demote)
	}

	for _, p := range tr {
		// Fire any due dormancy and earlier buffer deadlines first.
		for len(buffer) > 0 && buffer[0].deadline <= p.T {
			deliver(buffer[0].deadline)
		}
		advanceDormancy(m, &dormancyAt, p.T, demote)

		idle := m.State() == rrc.Idle
		if p.Dir == trace.In && idle {
			// Station holds the packet.
			buffer = append(buffer, held{p: p, deadline: p.T + buf.Hold})
			bufferedBytes += p.Size
			if buf.MaxBytes > 0 && bufferedBytes >= buf.MaxBytes {
				deliver(p.T)
			}
			continue
		}
		// Uplink traffic (or downlink to an already-active radio) passes
		// through and flushes anything held.
		if len(buffer) > 0 {
			deliver(p.T)
		}
		m.OnPacket(p.T)
		res.Rewritten = append(res.Rewritten, p)
		if sawPkt {
			demote.Observe(p.T - lastPkt)
		}
		lastPkt = p.T
		sawPkt = true
		scheduleDormancy(&dormancyAt, p.T, demote)
	}
	// Trailing buffer: deliver at the earliest deadline.
	if len(buffer) > 0 {
		deliver(buffer[0].deadline)
	}

	sort.SliceStable(res.Rewritten, func(i, j int) bool {
		return res.Rewritten[i].T < res.Rewritten[j].T
	})

	// Account energy of the rewritten trace.
	m.AdvanceTo(m.Now() + prof.Tail() + time.Second)
	var dataJ float64
	for _, p := range res.Rewritten {
		dataJ += energy.TxJ(&prof, p.Size, p.Dir == trace.Out)
	}
	res.EnergyJ = dataJ +
		m.Residency(rrc.DCH).Seconds()*prof.T1MW/1000 +
		m.Residency(rrc.FACH).Seconds()*prof.T2MW/1000 +
		float64(float64(m.Promotions())*prof.PromotionJ()) +
		float64(float64(m.Demotions())*prof.DormancyJ()) // rounded: no fused multiply-add
	res.Promotions = m.Promotions()
	return res, nil
}

// advanceDormancy fires a scheduled fast dormancy if it came due by t.
func advanceDormancy(m *rrc.Machine, dormancyAt *time.Duration, t time.Duration, _ policy.DemotePolicy) {
	if *dormancyAt != policy.Never && *dormancyAt <= t {
		at := *dormancyAt
		*dormancyAt = policy.Never
		m.AdvanceTo(at)
		if m.State() != rrc.Idle {
			m.FastDormancy(at)
		}
	}
	m.AdvanceTo(t)
}

// scheduleDormancy records the device's next dormancy trigger.
func scheduleDormancy(dormancyAt *time.Duration, now time.Duration, demote policy.DemotePolicy) {
	w := demote.Decide(now)
	if w == policy.Never {
		*dormancyAt = policy.Never
		return
	}
	if w < 0 {
		w = 0
	}
	*dormancyAt = now + w
}
