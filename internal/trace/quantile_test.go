package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// referenceQuantileGap is QuantileGap as it was before selection replaced
// the sort, kept verbatim: the whole gap slice sorted, then the same
// interpolation between the lo-th and hi-th order statistics.
func referenceQuantileGap(tr Trace, q float64) time.Duration {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("trace: quantile %v out of [0,1]", q))
	}
	gaps := tr.InterArrivals()
	if len(gaps) == 0 {
		return 0
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	if len(gaps) == 1 {
		return gaps[0]
	}
	pos := float64(q * float64(len(gaps)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return gaps[lo]
	}
	frac := pos - float64(lo)
	return gaps[lo] + time.Duration(frac*float64(gaps[hi]-gaps[lo]))
}

// traceOfGaps builds a trace whose inter-arrival gaps are exactly gaps.
func traceOfGaps(gaps []time.Duration) Trace {
	tr := Trace{{T: 0}}
	for _, g := range gaps {
		tr = append(tr, Packet{T: tr[len(tr)-1].T + g})
	}
	return tr
}

// TestQuantileGapMatchesSort compares QuantileGap with the sorting
// reference on the shapes selection must get right: no gap, one gap, two
// gaps, all-equal gaps (heartbeats), heavy ties, sorted and reversed
// runs, and random gaps, each at q = 0, 1, 0.95 and random quantiles.
func TestQuantileGapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	type shape struct {
		name string
		tr   Trace
	}
	shapes := []shape{
		{"no-packets", nil},
		{"one-packet", Trace{{T: sec(3)}}},
		{"two-packets", Trace{{T: 0}, {T: sec(2)}}},
		{"one-gap-at-zero", Trace{{T: sec(1)}, {T: sec(1)}}},
	}
	gapShapes := []struct {
		name string
		n    int
		gap  func(i int) time.Duration
	}{
		{"two-gaps", 2, func(i int) time.Duration { return ms(10 - 9*i) }},
		{"all-equal", 4000, func(int) time.Duration { return 30 * time.Second }},
		{"all-zero", 4000, func(int) time.Duration { return 0 }},
		{"heavy-ties", 4000, func(int) time.Duration { return ms(100 * rng.Intn(4)) }},
		{"sorted", 4000, func(i int) time.Duration { return ms(i) }},
		{"reversed", 4000, func(i int) time.Duration { return ms(5000 - i) }},
		{"organ-pipe", 4000, func(i int) time.Duration { return ms(min(i, 4000-i)) }},
		{"random", 4000, func(int) time.Duration { return time.Duration(rng.Int63n(int64(time.Hour))) }},
	}
	for _, g := range gapShapes {
		gaps := make([]time.Duration, g.n)
		for i := range gaps {
			gaps[i] = g.gap(i)
		}
		shapes = append(shapes, shape{g.name, traceOfGaps(gaps)})
	}
	// An unsorted trace has negative gaps, and the extremes mix gaps of a
	// few nanoseconds with gaps of nearly ±2^63 ns.
	unsorted := make(Trace, 4000)
	for i := range unsorted {
		unsorted[i].T = time.Duration(rng.Int63n(int64(time.Minute)))
	}
	shapes = append(shapes, shape{"unsorted", unsorted})
	extremes := Trace{{T: -1 << 62}, {T: 1<<62 - 1}, {T: 1<<62 + 6}, {T: 1<<62 + 13}, {T: 1<<62 + 13}, {T: -1 << 62},
		{T: 0}, {T: 7}, {T: 8}, {T: 24}, {T: 1 << 62}, {T: -1 << 62}, {T: 1<<62 + 3}}
	shapes = append(shapes, shape{"extremes", extremes})
	qs := []float64{0, 1, 0.95, 0.5, 0.999, 0.01}
	for i := 0; i < 20; i++ {
		qs = append(qs, rng.Float64())
	}
	for _, s := range shapes {
		for _, q := range qs {
			if got, want := s.tr.QuantileGap(q), referenceQuantileGap(s.tr, q); got != want {
				t.Errorf("%s at q=%v: QuantileGap = %v, sorted reference %v", s.name, q, got, want)
			}
		}
	}
}

// FuzzQuantileGap holds QuantileGap to the sorting reference on arbitrary
// gap sequences and quantiles. Each gap takes two bytes: with the top bit
// set it is one of eight repeated values (so ties are common), otherwise
// the low 15 bits count milliseconds.
func FuzzQuantileGap(f *testing.F) {
	f.Add([]byte{}, 0.95)
	f.Add([]byte{0, 1}, 0.5)
	f.Add([]byte{0x80, 0, 0x80, 0, 0x80, 0, 0x80, 0}, 1.0)
	f.Add([]byte{0, 5, 0x80, 1, 0, 3, 0x80, 1, 0x7f, 0xff}, 0.0)
	f.Add([]byte{0x80, 2, 0, 9, 0x80, 2, 0, 1, 0x80, 3}, 0.37)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return
		}
		q = math.Abs(q)
		if q > 1 {
			q -= math.Floor(q)
		}
		gaps := make([]time.Duration, 0, len(data)/2)
		for k := 0; k+1 < len(data); k += 2 {
			v := binary.BigEndian.Uint16(data[k:])
			if v&0x8000 != 0 {
				gaps = append(gaps, time.Duration(v&7)*time.Second)
			} else {
				gaps = append(gaps, time.Duration(v)*time.Millisecond)
			}
		}
		tr := traceOfGaps(gaps)
		if got, want := tr.QuantileGap(q), referenceQuantileGap(tr, q); got != want {
			t.Fatalf("%d gaps at q=%v: QuantileGap = %v, sorted reference %v", len(gaps), q, got, want)
		}
	})
}
