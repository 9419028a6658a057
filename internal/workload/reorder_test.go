package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/trace"
)

// The reorder buffer (a sorted queue) and the galloping merge are held
// here to the implementations they replaced: a binary heap over
// (timestamp, emission order) and a full scan of every source's head per
// packet, copied verbatim below.

// heapStepSource is the heap-based stepSource the sorted queue replaced.
type heapStepSource struct {
	step    stepFunc
	buf     trace.Trace
	pending pendingHeap
	floor   time.Duration
	drained bool
	seq     uint64
}

func (s *heapStepSource) Next() (trace.Packet, bool, error) {
	for {
		if len(s.pending) > 0 && (s.drained || s.pending[0].p.T <= s.floor) {
			return s.pending.pop(), true, nil
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
		for _, p := range batch {
			s.pending.push(pendingPkt{p: p, seq: s.seq})
			s.seq++
		}
		s.floor = floor
	}
}

type pendingPkt struct {
	p   trace.Packet
	seq uint64
}

func (a pendingPkt) less(b pendingPkt) bool {
	if a.p.T != b.p.T {
		return a.p.T < b.p.T
	}
	return a.seq < b.seq
}

type pendingHeap []pendingPkt

func (h *pendingHeap) push(x pendingPkt) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].less((*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *pendingHeap) pop() trace.Packet {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && old[l].less(old[min]) {
			min = l
		}
		if r < n && old[r].less(old[min]) {
			min = r
		}
		if min == i {
			break
		}
		old[i], old[min] = old[min], old[i]
		i = min
	}
	return top.p
}

// scanMergeSource is the mergeSource that scanned every head per packet.
type scanMergeSource struct {
	srcs  []trace.Source
	heads []trace.Packet
	have  []bool
	done  []bool
}

func (m *scanMergeSource) Next() (trace.Packet, bool, error) {
	best := -1
	for i := range m.srcs {
		if !m.have[i] && !m.done[i] {
			p, ok, err := m.srcs[i].Next()
			if err != nil {
				return trace.Packet{}, false, err
			}
			if !ok {
				m.done[i] = true
				continue
			}
			m.heads[i], m.have[i] = p, true
		}
		if m.have[i] && (best < 0 || m.heads[i].T < m.heads[best].T) {
			best = i
		}
	}
	if best < 0 {
		return trace.Packet{}, false, nil
	}
	m.have[best] = false
	return m.heads[best], true, nil
}

// stepBatch is one scripted wake-up: its packets in emission order and
// the floor it reports.
type stepBatch struct {
	pkts  trace.Trace
	floor time.Duration
}

// scriptedStep replays batches as a stepFunc, appending each to the
// caller's recycled buffer as a generator does.
func scriptedStep(batches []stepBatch) stepFunc {
	i := 0
	return func(buf trace.Trace) (trace.Trace, time.Duration, bool) {
		if i == len(batches) {
			return nil, 0, false
		}
		b := batches[i]
		i++
		return append(buf, b.pkts...), b.floor, true
	}
}

// drainAll pulls src dry; the sources here never fail.
func drainAll(t testing.TB, src trace.Source) trace.Trace {
	t.Helper()
	tr, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkSameOrder requires identical packet sequences, packet for packet.
func checkSameOrder(t testing.TB, label string, got, want trace.Trace) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d packets, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: packet %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// checkStepSource requires the sorted queue to release the scripted
// batches in the heap's order.
func checkStepSource(t testing.TB, label string, batches []stepBatch) {
	t.Helper()
	want := drainAll(t, &heapStepSource{step: scriptedStep(batches)})
	checkSameOrder(t, label, drainAll(t, newStepSource(scriptedStep(batches))), want)
}

// checkMergeSource requires the galloping merge of the sorted traces to
// yield the scanning merge's order.
func checkMergeSource(t testing.TB, label string, traces []trace.Trace) {
	t.Helper()
	srcs := func() []trace.Source {
		s := make([]trace.Source, len(traces))
		for i, tr := range traces {
			s[i] = tr.Source()
		}
		return s
	}
	n := len(traces)
	old := &scanMergeSource{srcs: srcs(), heads: make([]trace.Packet, n), have: make([]bool, n), done: make([]bool, n)}
	checkSameOrder(t, label, drainAll(t, newMergeSource(srcs())), drainAll(t, old))
}

// pkts builds packets at the given millisecond timestamps; the size
// records each packet's position so reorderings show.
func pkts(base int, ms ...int) trace.Trace {
	tr := make(trace.Trace, len(ms))
	for i, m := range ms {
		tr[i] = trace.Packet{T: time.Duration(m) * time.Millisecond, Dir: trace.Direction(i & 1), Size: base + i}
	}
	return tr
}

func TestStepSourceMatchesHeap(t *testing.T) {
	ms := func(m int) time.Duration { return time.Duration(m) * time.Millisecond }
	for name, batches := range map[string][]stepBatch{
		"none":     nil,
		"empty":    {{nil, ms(5)}, {nil, ms(9)}},
		"in-order": {{pkts(0, 1, 2, 3), ms(3)}, {pkts(10, 4, 5), ms(6)}},
		"unsorted": {{pkts(0, 5, 1, 3, 1), ms(2)}, {pkts(10, 9, 4, 4, 8), ms(20)}},
		"equal-t":  {{pkts(0, 4, 4, 4), ms(0)}, {pkts(10, 4, 4), ms(4)}, {pkts(20, 4), ms(4)}},
		// The floor stays behind queued packets while later batches
		// interleave with them, and an empty batch moves the floor.
		"floor-behind": {{pkts(0, 10, 30), ms(0)}, {pkts(10, 20, 30, 5), ms(1)}, {nil, ms(25)},
			{pkts(20, 30, 26, 40), ms(30)}, {pkts(30, 31), ms(100)}},
		// A floor that falls back below released packets still sorts the
		// rest: both buffers release the remaining minimum.
		"floor-lowered": {{pkts(0, 5, 6), ms(10)}, {pkts(10, 2, 7), ms(1)}, {pkts(20, 1), ms(50)}},
	} {
		checkStepSource(t, name, batches)
	}
	// Every study user, generated through the new pipeline and through
	// the heap and the scan.
	for i, u := range append(Verizon3GUsers(), VerizonLTEUsers()...) {
		for seed := int64(1); seed <= 2; seed++ {
			label := fmt.Sprintf("user%d/%d", i, seed)
			checkSameOrder(t, label, drainAll(t, u.Stream(seed, 3*time.Hour)), drainAll(t, oldUserStream(t, u, seed, 3*time.Hour)))
		}
	}
}

// oldUserStream is User.Stream with the heap buffer and the scanning
// merge: the same per-app RNGs and step functions, the old plumbing.
func oldUserStream(t testing.TB, u User, seed int64, d time.Duration) trace.Source {
	n := len(u.Apps)
	m := &scanMergeSource{heads: make([]trace.Packet, n), have: make([]bool, n), done: make([]bool, n)}
	for i, a := range u.Apps {
		r := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		s, ok := a.Stream(r, d).(*stepSource)
		if !ok {
			t.Fatalf("%s streams through no step source", a.Name())
		}
		m.srcs = append(m.srcs, &heapStepSource{step: s.step})
	}
	return m
}

func TestMergeSourceMatchesScan(t *testing.T) {
	for name, traces := range map[string][]trace.Trace{
		"none":         nil,
		"one":          {pkts(0, 1, 2, 2, 3)},
		"all-empty":    {nil, nil, nil},
		"ties":         {pkts(0, 1, 1, 2), pkts(10, 1, 2, 2), pkts(20, 1, 1, 1)},
		"early-end":    {pkts(0, 1), pkts(10, 0, 2, 3, 4, 5), nil, pkts(20, 2, 5, 9)},
		"runs":         {pkts(0, 1, 2, 3, 4, 20, 21), pkts(10, 5, 6, 7, 22), pkts(20, 8, 9, 23, 23)},
		"last-source":  {nil, pkts(10, 3), pkts(20, 1, 2, 3, 3)},
		"equal-heads":  {pkts(0, 5, 5), pkts(10, 5, 5), pkts(20, 5)},
		"winner-ties":  {pkts(0, 2, 2, 2), pkts(10, 1, 2)},
		"higher-first": {pkts(0, 3, 3), pkts(10, 1, 3, 3)},
	} {
		checkMergeSource(t, name, traces)
	}
}

// FuzzStepSource holds the sorted queue to the heap on scripted batches.
// Each byte is a packet: its low nibble a timestamp offset in ms from the
// batch's base, and a set top bit closes the batch after it, with the
// next three bits setting the floor (base + 2·value ms, so at times
// behind queued packets) and the base advancing by the same amount. A
// zero byte is an empty batch.
func FuzzStepSource(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x93, 0x00, 0x14, 0x8f})
	f.Add([]byte{0x05, 0x05, 0x85, 0x05, 0x05, 0xf5, 0x00, 0x00, 0x01, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		var batches []stepBatch
		var cur trace.Trace
		base := 0
		for i, b := range data {
			if b == 0 {
				batches = append(batches, stepBatch{floor: time.Duration(base) * time.Millisecond})
				continue
			}
			cur = append(cur, trace.Packet{T: time.Duration(base+int(b&0x0f)) * time.Millisecond, Size: i})
			if b&0x80 != 0 {
				step := 2 * int(b>>4&0x07)
				batches = append(batches, stepBatch{pkts: cur, floor: time.Duration(base+step) * time.Millisecond})
				cur, base = nil, base+step
			}
		}
		if len(cur) > 0 {
			batches = append(batches, stepBatch{pkts: cur, floor: time.Duration(base) * time.Millisecond})
		}
		checkStepSource(t, "fuzz", batches)
	})
}

// FuzzMergeSource holds the galloping merge to the scan on sorted
// sources. data[0] picks one to eight sources; every later byte appends a
// packet to source b%n, b/n%3 ms after that source's previous packet (0
// makes ties within and across sources). Sources that get no bytes are
// empty and others end early.
func FuzzMergeSource(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 0, 0, 0, 1, 1, 2, 4, 6, 1})
	f.Add([]byte{7, 6, 6, 6, 13, 20, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkMergeSource(t, "fuzz", nil)
			return
		}
		n := int(data[0])%8 + 1
		traces := make([]trace.Trace, n)
		at := make([]time.Duration, n)
		for i, b := range data[1:] {
			s := int(b) % n
			at[s] += time.Duration(int(b)/n%3) * time.Millisecond
			traces[s] = append(traces[s], trace.Packet{T: at[s], Size: i})
		}
		checkMergeSource(t, "fuzz", traces)
	})
}
