package workload

import (
	"math/rand"
	"time"

	"repro/internal/trace"
)

// This file provides day-scale workload structure. The paper's user traces
// span two to five days each; traffic over such spans is not stationary —
// phones sleep at night, foreground apps run in sessions, background apps
// keep ticking. Diurnal wraps any AppModel with an activity mask so the
// generators above compose into realistic multi-day traces.

// diurnalBurstGap segments the underlying traffic into the bursts the mask
// keeps or drops whole (masking sessions, not individual packets).
const diurnalBurstGap = time.Second

// Diurnal masks an underlying model with a daily activity cycle: during
// "awake" hours the model's full traffic passes; during "asleep" hours
// only a configurable fraction of wake-ups survive (background syncs still
// fire occasionally at night; foreground traffic does not).
type Diurnal struct {
	// Model is the underlying generator.
	Model AppModel
	// WakeHour and SleepHour bound the awake span within each 24 h day
	// (e.g. 8 and 23). WakeHour must be < SleepHour.
	WakeHour, SleepHour int
	// NightFraction is the probability a night-time burst survives
	// (0 = silent nights, 1 = no masking).
	NightFraction float64
	// JitterMinutes shifts each day's wake/sleep boundaries by up to this
	// many minutes either way, so days differ.
	JitterMinutes int
}

// Name implements AppModel.
func (d Diurnal) Name() string { return d.Model.Name() + "+diurnal" }

// span is one day's awake window.
type span struct{ from, to time.Duration }

// Stream implements AppModel: the day mask is applied burst-by-burst as
// the underlying stream flows, buffering only the burst in flight. The
// day-boundary jitters are drawn up front (one pair per simulated day);
// the per-burst night-survival draws interleave with the base stream in
// burst order.
func (d Diurnal) Stream(r *rand.Rand, duration time.Duration) trace.Source {
	wake, sleep := d.WakeHour, d.SleepHour
	if wake < 0 {
		wake = 0
	}
	if sleep > 24 {
		sleep = 24
	}
	if wake >= sleep {
		// Degenerate mask: pass everything through.
		return d.Model.Stream(r, duration)
	}

	days := int(duration/(24*time.Hour)) + 1
	awake := make([]span, days)
	for day := range awake {
		jitter := func() time.Duration {
			if d.JitterMinutes <= 0 {
				return 0
			}
			return time.Duration(r.Intn(2*d.JitterMinutes+1)-d.JitterMinutes) * time.Minute
		}
		start := time.Duration(day)*24*time.Hour + time.Duration(wake)*time.Hour + jitter()
		end := time.Duration(day)*24*time.Hour + time.Duration(sleep)*time.Hour + jitter()
		awake[day] = span{from: start, to: end}
	}
	return &diurnalSource{
		base:  d.Model.Stream(r, duration),
		r:     r,
		awake: awake,
		night: d.NightFraction,
	}
}

// diurnalSource filters a base stream burst-by-burst through the day mask.
type diurnalSource struct {
	base  trace.Source
	r     *rand.Rand
	awake []span
	night float64

	burst  trace.Trace // scratch for the burst being assembled
	out    trace.Trace // kept burst being emitted
	outIdx int
	peek   trace.Packet // first packet of the next burst
	have   bool
	done   bool
	err    error
}

func (ds *diurnalSource) isAwake(t time.Duration) bool {
	day := int(t / (24 * time.Hour))
	if day >= len(ds.awake) {
		day = len(ds.awake) - 1
	}
	s := ds.awake[day]
	return t >= s.from && t < s.to
}

// Next implements trace.Source.
func (ds *diurnalSource) Next() (trace.Packet, bool, error) {
	for {
		if ds.outIdx < len(ds.out) {
			p := ds.out[ds.outIdx]
			ds.outIdx++
			return p, true, nil
		}
		if ds.err != nil {
			return trace.Packet{}, false, ds.err
		}
		if ds.done && !ds.have {
			return trace.Packet{}, false, nil
		}

		// Assemble the next burst: the buffered peek (if any) plus packets
		// until an inter-arrival beyond the burst gap.
		burst := ds.burst[:0]
		if ds.have {
			burst = append(burst, ds.peek)
			ds.have = false
		}
		for {
			p, ok, err := ds.base.Next()
			if err != nil {
				ds.err = err
				return trace.Packet{}, false, err
			}
			if !ok {
				ds.done = true
				break
			}
			if len(burst) > 0 && p.T-burst[len(burst)-1].T > diurnalBurstGap {
				ds.peek, ds.have = p, true
				break
			}
			burst = append(burst, p)
		}
		ds.burst = burst
		if len(burst) == 0 {
			continue // base exhausted with nothing buffered
		}
		if ds.isAwake(burst[0].T) || ds.r.Float64() < ds.night {
			ds.out, ds.outIdx = burst, 0
		}
	}
}

// DayUser wraps a User's apps in Diurnal masks appropriate to each
// category: background services (IM, Email, News, MicroBlog, Game) keep a
// small night-time trickle; foreground categories (Social, Finance) go
// silent at night.
func DayUser(u User) User {
	wrapped := make([]AppModel, len(u.Apps))
	for i, a := range u.Apps {
		night := 0.15
		switch a.Name() {
		case "Social", "Finance":
			night = 0
		}
		wrapped[i] = Diurnal{
			Model:         a,
			WakeHour:      8,
			SleepHour:     23,
			NightFraction: night,
			JitterMinutes: 45,
		}
	}
	return User{Name: u.Name + "-day", Apps: wrapped}
}
