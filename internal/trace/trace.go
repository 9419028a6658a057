// Package trace provides the packet-trace substrate used throughout the
// library: packet records, whole traces, pull-based streaming sources,
// burst/session segmentation, and summary statistics.
//
// The algorithms in this repository (MakeIdle, MakeActive and the baselines
// they are compared against) consume nothing but packet timestamps,
// directions and lengths, exactly as the control module of the paper observes
// them at the socket layer. A Trace is therefore the universal currency of
// the simulator: synthetic workload generators produce them, codecs persist
// them, and the simulation engine replays them against a radio model.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Direction tells whether a packet was sent by the mobile device or received
// from the network. The energy model charges uplink and downlink traffic at
// different power levels (Table 1 of the paper).
type Direction uint8

const (
	// Out is an uplink packet (mobile -> base station).
	Out Direction = iota
	// In is a downlink packet (base station -> mobile).
	In
)

// String returns "out" or "in".
func (d Direction) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Valid reports whether d is one of the two defined directions.
func (d Direction) Valid() bool { return d == Out || d == In }

// Packet is a single captured packet: an offset from the beginning of the
// trace, a direction, and a length in bytes. This mirrors what tcpdump
// provided the paper's trace-driven simulator.
type Packet struct {
	// T is the packet timestamp as an offset from the trace origin.
	T time.Duration
	// Dir is the packet direction.
	Dir Direction
	// Size is the packet length in bytes, including headers.
	Size int
}

// Trace is a time-ordered sequence of packets.
type Trace []Packet

// Common validation errors returned by Validate.
var (
	ErrUnsorted     = errors.New("trace: packets not sorted by timestamp")
	ErrNegativeTime = errors.New("trace: packet with negative timestamp")
	ErrBadDirection = errors.New("trace: packet with invalid direction")
	ErrNegativeSize = errors.New("trace: packet with negative size")
)

// Validate checks the invariants every other package relies on: timestamps
// are non-negative and non-decreasing, directions are valid and sizes are
// non-negative. It returns the first violation found.
func (tr Trace) Validate() error {
	var last time.Duration
	for i, p := range tr {
		if p.T < 0 {
			return fmt.Errorf("%w: packet %d at %v", ErrNegativeTime, i, p.T)
		}
		if p.T < last {
			return fmt.Errorf("%w: packet %d at %v after %v", ErrUnsorted, i, p.T, last)
		}
		if !p.Dir.Valid() {
			return fmt.Errorf("%w: packet %d", ErrBadDirection, i)
		}
		if p.Size < 0 {
			return fmt.Errorf("%w: packet %d", ErrNegativeSize, i)
		}
		last = p.T
	}
	return nil
}

// Duration returns the time span from the trace origin to the last packet.
// An empty trace has zero duration.
func (tr Trace) Duration() time.Duration {
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1].T
}

// Bytes returns the total payload volume, split by direction.
func (tr Trace) Bytes() (out, in int64) {
	for _, p := range tr {
		if p.Dir == Out {
			out += int64(p.Size)
		} else {
			in += int64(p.Size)
		}
	}
	return out, in
}

// InterArrivals returns the len(tr)-1 gaps between consecutive packets.
// It returns nil for traces with fewer than two packets.
func (tr Trace) InterArrivals() []time.Duration {
	if len(tr) < 2 {
		return nil
	}
	gaps := make([]time.Duration, len(tr)-1)
	for i := 1; i < len(tr); i++ {
		gaps[i-1] = tr[i].T - tr[i-1].T
	}
	return gaps
}

// Sort orders the trace by timestamp (stably, so simultaneous packets keep
// their relative order). Generators that interleave several application
// models use this before handing out a trace.
func (tr Trace) Sort() {
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
}

// Clone returns a deep copy of the trace.
func (tr Trace) Clone() Trace {
	out := make(Trace, len(tr))
	copy(out, tr)
	return out
}

// Shift returns a copy of the trace with every timestamp moved by d.
// It panics if the shift would make a timestamp negative.
func (tr Trace) Shift(d time.Duration) Trace {
	out := make(Trace, len(tr))
	for i, p := range tr {
		p.T += d
		if p.T < 0 {
			panic(fmt.Sprintf("trace: Shift(%v) drives packet %d negative", d, i))
		}
		out[i] = p
	}
	return out
}

// Slice returns the sub-trace with timestamps in [from, to), re-based so the
// first returned packet keeps its absolute offset (timestamps are not
// shifted). The result aliases no memory with tr.
func (tr Trace) Slice(from, to time.Duration) Trace {
	var out Trace
	for _, p := range tr {
		if p.T >= from && p.T < to {
			out = append(out, p)
		}
	}
	return out
}

// Concat joins traces end-to-end: each subsequent trace is shifted to
// begin gap after the previous one's last packet. Useful for composing
// multi-day captures from daily segments.
func Concat(gap time.Duration, traces ...Trace) Trace {
	if gap < 0 {
		panic("trace: Concat requires a non-negative gap")
	}
	var out Trace
	var offset time.Duration
	for _, t := range traces {
		if len(t) == 0 {
			continue
		}
		base := t[0].T
		for _, p := range t {
			p.T = p.T - base + offset
			out = append(out, p)
		}
		offset = out[len(out)-1].T + gap
	}
	return out
}

// Merge combines several traces into one time-ordered trace. Inputs are not
// modified. This is how per-application traces combine into a per-user
// workload (the paper's users ran several background apps concurrently).
func Merge(traces ...Trace) Trace {
	var n int
	for _, t := range traces {
		n += len(t)
	}
	out := make(Trace, 0, n)
	for _, t := range traces {
		out = append(out, t...)
	}
	out.Sort()
	return out
}

// Burst is a maximal run of packets in which no inter-arrival gap is
// larger than the segmentation threshold. The paper calls these "sessions"
// or "traffic bursts"; MakeActive operates on them.
type Burst struct {
	// Start and End are the timestamps of the first and last packet.
	Start, End time.Duration
	// Packets is the sub-slice of the original trace (aliased, not copied).
	Packets Trace
}

// Span returns the burst's duration (zero for single-packet bursts).
func (b Burst) Span() time.Duration { return b.End - b.Start }

// Bursts segments the trace into bursts using gap as the split threshold:
// a new burst begins whenever the inter-arrival time exceeds gap.
// It panics if gap is not positive.
func (tr Trace) Bursts(gap time.Duration) []Burst {
	if gap <= 0 {
		panic("trace: Bursts requires a positive gap")
	}
	if len(tr) == 0 {
		return nil
	}
	var bursts []Burst
	start := 0
	for i := 1; i < len(tr); i++ {
		if tr[i].T-tr[i-1].T > gap {
			bursts = append(bursts, Burst{
				Start:   tr[start].T,
				End:     tr[i-1].T,
				Packets: tr[start:i],
			})
			start = i
		}
	}
	bursts = append(bursts, Burst{
		Start:   tr[start].T,
		End:     tr[len(tr)-1].T,
		Packets: tr[start:],
	})
	return bursts
}

// Stats summarises a trace for reports and sanity checks.
type Stats struct {
	Packets      int
	OutBytes     int64
	InBytes      int64
	Duration     time.Duration
	MeanGap      time.Duration
	MedianGap    time.Duration
	MaxGap       time.Duration
	Bursts       int           // segmented at the gap passed to Summarize
	MeanBurstLen float64       // packets per burst
	BurstGap     time.Duration // the segmentation gap used
}

// Summarize computes Stats with bursts segmented at burstGap.
func (tr Trace) Summarize(burstGap time.Duration) Stats {
	s := Stats{Packets: len(tr), Duration: tr.Duration(), BurstGap: burstGap}
	s.OutBytes, s.InBytes = tr.Bytes()
	gaps := tr.InterArrivals()
	if len(gaps) > 0 {
		sorted := make([]time.Duration, len(gaps))
		copy(sorted, gaps)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum time.Duration
		for _, g := range sorted {
			sum += g
		}
		s.MeanGap = sum / time.Duration(len(sorted))
		s.MedianGap = sorted[len(sorted)/2]
		s.MaxGap = sorted[len(sorted)-1]
	}
	if burstGap > 0 && len(tr) > 0 {
		bursts := tr.Bursts(burstGap)
		s.Bursts = len(bursts)
		s.MeanBurstLen = float64(len(tr)) / float64(len(bursts))
	}
	return s
}

// QuantileGap returns the q-th quantile (0 <= q <= 1) of the inter-arrival
// distribution, using linear interpolation between order statistics. This is
// the primitive behind the paper's "95% IAT" baseline. It returns 0 for
// traces with fewer than two packets and panics on q outside [0, 1].
func (tr Trace) QuantileGap(q float64) time.Duration {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("trace: quantile %v out of [0,1]", q))
	}
	gaps := tr.InterArrivals()
	if len(gaps) == 0 {
		return 0
	}
	if len(gaps) == 1 {
		return gaps[0]
	}
	// Rounded explicitly so no target fuses it into pos - lo below.
	pos := float64(q * float64(len(gaps)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	// Only the lo-th and hi-th order statistics are read, so select them
	// instead of sorting: after selectGap every gap past lo is >= gaps[lo],
	// and hi = lo+1 is the smallest of those, moved into place.
	selectGap(gaps, lo)
	if lo == hi {
		return gaps[lo]
	}
	m := hi
	for i := hi + 1; i < len(gaps); i++ {
		if gaps[i] < gaps[m] {
			m = i
		}
	}
	gaps[hi], gaps[m] = gaps[m], gaps[hi]
	frac := pos - float64(lo)
	return gaps[lo] + time.Duration(frac*float64(gaps[hi]-gaps[lo]))
}

// selectGap reorders gaps in place so that gaps[k] is the k-th smallest
// (0-based), every gap before it is <= gaps[k] and every gap after it is
// >= gaps[k]. It is a quickselect with a three-way partition (below, equal
// to, above the pivot): heartbeat traffic repeats the same gap thousands
// of times, and a run of equal gaps then ends the search in one pass
// instead of peeling one element per pass. Pivots come from a fixed
// xorshift sequence, so the expected time is linear on any input and the
// reordering is the same on every run.
func selectGap(gaps []time.Duration, k int) {
	lo, hi := 0, len(gaps) // the window [lo, hi) still holds the k-th gap
	rng := uint64(len(gaps))*0x9E3779B97F4A7C15 | 1
	for hi-lo > 1 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pivot := gaps[lo+int(rng%uint64(hi-lo))]
		// [lo, lt) < pivot, [lt, i) == pivot, [gt, hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch g := gaps[i]; {
			case g < pivot:
				gaps[i], gaps[lt] = gaps[lt], g
				lt++
				i++
			case g > pivot:
				gt--
				gaps[i], gaps[gt] = gaps[gt], g
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}
