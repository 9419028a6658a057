package workload

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"repro/internal/trace"
)

// This file is the streaming side of the generators: every AppModel (and
// User mixes) can emit its traffic as a lazy trace.Source, synthesizing
// packets on demand from the seeded RNG instead of materializing a slice.
//
// The slice API is defined on top of the streams — Generate is exactly
// Collect(Stream) — so materialized and streamed replays of the same seed
// see the same packets by construction, which is the determinism
// invariant the fleet's equivalence tests enforce.
//
// # How streaming preserves the sorted order
//
// The generators think in wake-ups: a periodic poll, a heartbeat, one
// interactive exchange. Each wake-up emits a bounded batch of packets
// whose timestamps may run past the next wake-up (a follow-up fetch, a
// straggling response), which is why the slice path ends with a stable
// sort. The streaming path reproduces that sort exactly with a bounded
// reorder buffer: batches carry a floor — a lower bound on every packet
// any future batch can emit — and a packet leaves the buffer only once
// its timestamp is at or below the floor, ties broken by emission order.
// Sorting by (timestamp, emission order) is precisely what a stable sort
// of the concatenated emissions computes, so the two paths agree packet
// for packet. The buffer holds only the packets of wake-ups still
// overlapping the floor — O(burst), never O(duration).

// Stream runs a model's lazy emission with a fresh deterministic RNG for
// the seed — the streaming counterpart of Generate.
func Stream(m AppModel, seed int64, duration time.Duration) trace.Source {
	return m.Stream(rand.New(rand.NewSource(seed)), duration)
}

// collect materializes a generator stream. Generator sources never error
// (they synthesize valid packets by construction), so this is total.
func collect(src trace.Source) trace.Trace {
	tr, err := trace.Collect(src)
	if err != nil {
		panic("workload: generator source failed: " + err.Error())
	}
	return tr
}

// stepFunc emits one wake-up's packets by appending to buf (which the
// caller recycles) and returns the extended batch, a floor no future
// emission will precede, and ok=false once the model is exhausted (the
// other returns are then ignored).
type stepFunc func(buf trace.Trace) (batch trace.Trace, floor time.Duration, ok bool)

// stepSource adapts a stepFunc into a sorted trace.Source via the reorder
// buffer described in the file comment. The buffer is a queue kept sorted
// by (timestamp, emission order): pending[head:] are the buffered packets,
// and the front is the next to leave.
type stepSource struct {
	step    stepFunc
	buf     trace.Trace
	pending trace.Trace
	head    int
	floor   time.Duration
	drained bool
}

func newStepSource(step stepFunc) *stepSource { return &stepSource{step: step} }

// Next implements trace.Source.
func (s *stepSource) Next() (trace.Packet, bool, error) {
	for {
		if s.head < len(s.pending) && (s.drained || s.pending[s.head].T <= s.floor) {
			p := s.pending[s.head]
			s.head++
			return p, true, nil
		}
		if s.drained {
			return trace.Packet{}, false, nil
		}
		batch, floor, ok := s.step(s.buf[:0])
		if !ok {
			s.drained = true
			continue
		}
		s.buf = batch
		s.enqueue(batch)
		s.floor = floor
	}
}

// enqueue adds a batch, emitted after every queued packet, to the sorted
// queue. The batch is stably sorted by timestamp (almost always it
// already is), then appended when it starts at or after the queue's
// tail, or merged behind the queued packets otherwise, queued packets
// first among equal timestamps: the order (timestamp, emission order).
func (s *stepSource) enqueue(batch trace.Trace) {
	if len(batch) == 0 {
		return
	}
	if !slices.IsSortedFunc(batch, byTime) {
		slices.SortStableFunc(batch, byTime)
	}
	n := copy(s.pending, s.pending[s.head:])
	s.pending, s.head = s.pending[:n], 0
	s.pending = append(s.pending, batch...)
	if n == 0 || batch[0].T >= s.pending[n-1].T {
		return
	}
	// Merge from the back: the later timestamp goes last, and on a tie the
	// batch's packet, which was emitted later.
	i, j := n-1, len(batch)-1
	for k := len(s.pending) - 1; j >= 0; k-- {
		if i >= 0 && s.pending[i].T > batch[j].T {
			s.pending[k] = s.pending[i]
			i--
		} else {
			s.pending[k] = batch[j]
			j--
		}
	}
}

// byTime orders packets by timestamp alone; stable sorts keep emission
// order among equal timestamps.
func byTime(a, b trace.Packet) int { return cmp.Compare(a.T, b.T) }

// Stream implements AppModel: one poll exchange per step.
func (p Periodic) Stream(r *rand.Rand, duration time.Duration) trace.Source {
	t := jittered(r, p.Period, p.Jitter)
	return newStepSource(func(buf trace.Trace) (trace.Trace, time.Duration, bool) {
		if t >= duration {
			return nil, 0, false
		}
		var end time.Duration
		buf, end = p.Shape.Emit(r, buf, t)
		if p.ExtraBurstP > 0 && r.Float64() < p.ExtraBurstP {
			follow := end + secsDur(0.2+float64(0.6*r.Float64()))
			buf, _ = p.Shape.Emit(r, buf, follow)
		}
		t += jittered(r, p.Period, p.Jitter)
		return buf, t, true
	})
}

// Stream implements AppModel: one heartbeat interval per step.
func (h Heartbeat) Stream(r *rand.Rand, duration time.Duration) trace.Source {
	period := func() time.Duration {
		span := h.MaxPeriod - h.MinPeriod
		if span <= 0 {
			return h.MinPeriod
		}
		return h.MinPeriod + time.Duration(r.Int63n(int64(span)))
	}
	t := period()
	return newStepSource(func(buf trace.Trace) (trace.Trace, time.Duration, bool) {
		if t >= duration {
			return nil, 0, false
		}
		buf = append(buf, trace.Packet{T: t, Dir: trace.Out, Size: 78})
		buf = append(buf, trace.Packet{T: t + secsDur(0.05+float64(0.1*r.Float64())), Dir: trace.In, Size: 66})
		if h.MessageP > 0 && r.Float64() < h.MessageP {
			buf, _ = h.Message.Emit(r, buf, t+secsDur(1+2*float64(r.Float64())))
		}
		t += period()
		return buf, t, true
	})
}

// Stream implements AppModel: one exchange per step, sessions tracked
// across steps.
func (s Interactive) Stream(r *rand.Rand, duration time.Duration) trace.Source {
	actions := s.ActionsMax
	if actions < 1 {
		actions = 1
	}
	think := func() time.Duration {
		return secsDur(pareto(r, s.ThinkMin.Seconds(), s.ThinkAlpha, s.ThinkCap.Seconds()))
	}
	t := think()
	remaining := 0 // exchanges left in the current session; 0 = between sessions
	return newStepSource(func(buf trace.Trace) (trace.Trace, time.Duration, bool) {
		if t >= duration {
			return nil, 0, false
		}
		if remaining == 0 {
			remaining = 1 + r.Intn(actions)
		}
		var end time.Duration
		buf, end = s.Shape.Emit(r, buf, t)
		// Short intra-session think time: 2-15 s.
		t = end + secsDur(2+float64(13*r.Float64()))
		remaining--
		if remaining == 0 || t >= duration {
			remaining = 0
			t += think()
		}
		return buf, t, true
	})
}

// Stream implements AppModel: one tick per step.
func (tk Ticker) Stream(r *rand.Rand, duration time.Duration) trace.Source {
	t := jittered(r, tk.Period, tk.Jitter)
	return newStepSource(func(buf trace.Trace) (trace.Trace, time.Duration, bool) {
		if t >= duration {
			return nil, 0, false
		}
		buf = append(buf, trace.Packet{T: t, Dir: trace.In, Size: tk.Size})
		if r.Intn(10) == 0 {
			buf = append(buf, trace.Packet{T: t + 30*time.Millisecond, Dir: trace.Out, Size: 120})
		}
		t += jittered(r, tk.Period, tk.Jitter)
		return buf, t, true
	})
}

// mergeSource is a k-way stable merge over sorted sources: it always
// yields the earliest head packet, ties broken by source index — exactly
// the order trace.Merge gives the concatenated materialized traces.
//
// It gallops: after a scan picks the winner cur, it keeps yielding from
// cur while cur's next packet still beats rival, the earliest head among
// the other sources (ties to the lower index), and scans again only when
// cur loses or ends. The other heads do not move meanwhile, so rival
// stays the earliest of them. Each source has its own RNG, so the order
// in which sources are pulled never changes a packet.
type mergeSource struct {
	srcs       []trace.Source
	heads      []trace.Packet
	done       []bool
	started    bool
	cur, rival int // -1 when there is none
}

func newMergeSource(srcs []trace.Source) *mergeSource {
	return &mergeSource{
		srcs:  srcs,
		heads: make([]trace.Packet, len(srcs)),
		done:  make([]bool, len(srcs)),
		cur:   -1,
		rival: -1,
	}
}

// Next implements trace.Source.
func (m *mergeSource) Next() (trace.Packet, bool, error) {
	if !m.started {
		m.started = true
		for i := range m.srcs {
			if err := m.pull(i); err != nil {
				return trace.Packet{}, false, err
			}
		}
	} else if c := m.cur; c >= 0 {
		// cur's head was yielded: refill it and keep going while it wins.
		if err := m.pull(c); err != nil {
			return trace.Packet{}, false, err
		}
		if !m.done[c] && (m.rival < 0 || m.beats(c, m.rival)) {
			return m.heads[c], true, nil
		}
	}
	m.cur, m.rival = -1, -1
	for i := range m.srcs {
		switch {
		case m.done[i]:
		case m.cur < 0 || m.heads[i].T < m.heads[m.cur].T:
			m.cur, m.rival = i, m.cur
		case m.rival < 0 || m.heads[i].T < m.heads[m.rival].T:
			m.rival = i
		}
	}
	if m.cur < 0 {
		return trace.Packet{}, false, nil
	}
	return m.heads[m.cur], true, nil
}

// pull reads source i's next packet into its head, or marks it done.
func (m *mergeSource) pull(i int) error {
	p, ok, err := m.srcs[i].Next()
	if err != nil {
		return err
	}
	m.heads[i], m.done[i] = p, !ok
	return nil
}

// beats reports whether source a's head goes before source b's.
func (m *mergeSource) beats(a, b int) bool {
	ta, tb := m.heads[a].T, m.heads[b].T
	return ta < tb || (ta == tb && a < b)
}

// Stream produces the user's merged traffic lazily: each app gets the same
// independent seed-derived RNG as Generate, and the per-app streams merge
// in time order with ties broken by app index — packet for packet the
// trace Generate materializes.
func (u User) Stream(seed int64, duration time.Duration) trace.Source {
	srcs := make([]trace.Source, 0, len(u.Apps))
	for i, a := range u.Apps {
		r := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		srcs = append(srcs, a.Stream(r, duration))
	}
	return newMergeSource(srcs)
}
