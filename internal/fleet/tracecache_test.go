package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// cacheTestTrace returns a small deterministic trace distinguishable by
// tag, for asserting which generation produced a slab.
func cacheTestTrace(tag int) trace.Trace {
	return trace.Trace{
		{T: time.Duration(tag+1) * time.Second, Dir: trace.Out, Size: 100 + tag},
		{T: time.Duration(tag+2) * time.Second, Dir: trace.In, Size: 1400},
	}
}

func slabFor(t *testing.T, tag int) []byte {
	t.Helper()
	slab, err := trace.EncodeStream(cacheTestTrace(tag).Source())
	if err != nil {
		t.Fatal(err)
	}
	return slab
}

func TestTraceCacheSingleFlight(t *testing.T) {
	c := NewTraceCache(1 << 20)
	var gens atomic.Int64
	const callers = 16
	slabs := make([][]byte, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			slab, err := c.Slab("k", func() trace.Source {
				gens.Add(1)
				return cacheTestTrace(0).Source()
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			slabs[i] = slab
		}(i)
	}
	start.Done()
	done.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times, want 1", n)
	}
	want := slabFor(t, 0)
	for i, slab := range slabs {
		if !bytes.Equal(slab, want) {
			t.Fatalf("caller %d got a different slab", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats after single-flight: %+v", st)
	}
	if st.Entries != 1 || st.Bytes != int64(len(want)) {
		t.Fatalf("retained state: %+v", st)
	}
}

func TestTraceCacheLRUEviction(t *testing.T) {
	one := slabFor(t, 1)
	// Budget fits exactly two of the (equal-sized) slabs.
	c := NewTraceCache(int64(2 * len(one)))
	gen := func(tag int) func() trace.Source {
		return func() trace.Source { return cacheTestTrace(tag).Source() }
	}
	mustSlab := func(key string, tag int) []byte {
		t.Helper()
		slab, err := c.Slab(key, gen(tag))
		if err != nil {
			t.Fatal(err)
		}
		return slab
	}
	mustSlab("a", 1)
	mustSlab("b", 2)
	if c.Len() != 2 {
		t.Fatalf("retained %d slabs, want 2", c.Len())
	}
	// Touch a so b becomes the LRU victim when c arrives.
	mustSlab("a", 1)
	mustSlab("c", 3)
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	// a survived (hit), b was evicted (regenerates: a fresh miss).
	missesBefore := st.Misses
	mustSlab("a", 1)
	if got := c.Stats().Misses; got != missesBefore {
		t.Fatalf("a was evicted: misses %d -> %d", missesBefore, got)
	}
	mustSlab("b", 2)
	if got := c.Stats().Misses; got != missesBefore+1 {
		t.Fatalf("b still cached after eviction: misses %d -> %d", missesBefore, got)
	}
}

func TestTraceCacheOversizedSlabNotRetained(t *testing.T) {
	c := NewTraceCache(4) // smaller than any slab (magic alone is 8 bytes)
	slab, err := c.Slab("big", func() trace.Source { return cacheTestTrace(0).Source() })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slab, slabFor(t, 0)) {
		t.Fatal("oversized slab not returned intact")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized slab retained: %+v", st)
	}
	// The key is re-generated on the next call, not served from the cache.
	if _, err := c.Slab("big", func() trace.Source { return cacheTestTrace(0).Source() }); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != 2 {
		t.Fatalf("oversized key served from cache: misses = %d, want 2", got)
	}
}

// failingSource errors on the first Next call.
type failingSource struct{}

func (failingSource) Next() (trace.Packet, bool, error) {
	return trace.Packet{}, false, errors.New("synthetic generation failure")
}

func TestTraceCacheErrorNotCached(t *testing.T) {
	c := NewTraceCache(1 << 20)
	var gens atomic.Int64
	if _, err := c.Slab("k", func() trace.Source {
		gens.Add(1)
		return failingSource{}
	}); err == nil {
		t.Fatal("generation error not surfaced")
	}
	if c.Len() != 0 {
		t.Fatal("failed generation retained")
	}
	// The next caller retries — and a now-healthy generator succeeds.
	slab, err := c.Slab("k", func() trace.Source {
		gens.Add(1)
		return cacheTestTrace(0).Source()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slab, slabFor(t, 0)) {
		t.Fatal("retry returned wrong slab")
	}
	if n := gens.Load(); n != 2 {
		t.Fatalf("generator ran %d times, want 2 (fail, then retry)", n)
	}
}

func TestTraceCacheDisabled(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		if c := NewTraceCache(budget); c != nil {
			t.Fatalf("NewTraceCache(%d) = %v, want nil", budget, c)
		}
	}
	var c *TraceCache
	if st := c.Stats(); st != (TraceCacheStats{}) {
		t.Fatalf("nil cache stats: %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}
	c.AdvanceEpoch() // a no-op, not a panic
}

func TestTraceCacheEpochRetention(t *testing.T) {
	c := NewTraceCache(1 << 20)
	slab := func(key string) {
		t.Helper()
		if _, err := c.Slab(key, func() trace.Source { return cacheTestTrace(len(key)).Source() }); err != nil {
			t.Fatal(err)
		}
	}
	c.AdvanceEpoch()
	slab("once")
	slab("reused")
	c.AdvanceEpoch() // the next job: both survive one epoch
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("after one epoch: %+v", st)
	}
	slab("reused") // touched by a later epoch
	c.AdvanceEpoch()
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after two epochs, want only the reused slab kept and one eviction: %+v", st)
	}
	for i := 0; i < 3; i++ {
		c.AdvanceEpoch()
	}
	slab("reused")
	if got := c.Stats(); got.Misses != st.Misses || got.Evictions != 1 {
		t.Fatalf("reused slab dropped by later epochs: %+v", got)
	}
	slab("once")
	if got := c.Stats().Misses; got != st.Misses+1 {
		t.Fatalf("dropped slab still served: misses %d -> %d", st.Misses, got)
	}
}

// blockingSource waits for release before yielding its trace.
type blockingSource struct {
	started chan<- struct{}
	release <-chan struct{}
	src     trace.Source
}

func (b *blockingSource) Next() (trace.Packet, bool, error) {
	if b.started != nil {
		close(b.started)
		b.started = nil
		<-b.release
	}
	return b.src.Next()
}

func TestTraceCacheEpochSparesInFlight(t *testing.T) {
	c := NewTraceCache(1 << 20)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan []byte)
	go func() {
		slab, err := c.Slab("slow", func() trace.Source {
			return &blockingSource{started: started, release: release, src: cacheTestTrace(0).Source()}
		})
		if err != nil {
			t.Error(err)
		}
		done <- slab
	}()
	<-started
	for i := 0; i < 3; i++ {
		c.AdvanceEpoch()
	}
	close(release)
	if slab := <-done; !bytes.Equal(slab, slabFor(t, 0)) {
		t.Fatal("in-flight generation returned a wrong slab")
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("generation that outlived its epochs was not retained: %+v", st)
	}
	// Once ready, it is old scan traffic like any other.
	c.AdvanceEpoch()
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("stale one-shot slab kept: %+v", st)
	}
}

func TestTraceCacheRetainsExactCapacity(t *testing.T) {
	big := make(trace.Trace, 30000)
	for i := range big {
		big[i] = trace.Packet{T: time.Duration(i) * 37 * time.Millisecond, Dir: trace.Direction(i % 2), Size: 40 + i%1400}
	}
	raw, err := trace.EncodeStream(big.Source())
	if err != nil {
		t.Fatal(err)
	}
	if cap(raw) == len(raw) {
		t.Fatal("fixture too small: the encoder's buffer has no slack to trim")
	}
	c := NewTraceCache(1 << 20)
	for i := 0; i < 3; i++ {
		if _, err := c.Slab(fmt.Sprint(i), func() trace.Source { return big.Source() }); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*traceEntry)
		if cap(e.slab) != len(e.slab) || !bytes.Equal(e.slab, raw) {
			t.Fatalf("slab %q: len %d cap %d, want an exact copy of the %d encoded bytes",
				e.key, len(e.slab), cap(e.slab), len(raw))
		}
	}
	if c.total != int64(3*len(raw)) {
		t.Fatalf("charged %d bytes, want %d", c.total, 3*len(raw))
	}
}
