package fleet

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// countingSource wraps a Budget and records the high-water mark of
// outstanding tokens, so tests can prove worker spawning respects the
// budget.
type countingSource struct {
	inner       *Budget
	outstanding atomic.Int64
	peak        atomic.Int64
	acquires    atomic.Int64
}

func (c *countingSource) TryAcquire() bool {
	if !c.inner.TryAcquire() {
		return false
	}
	c.acquires.Add(1)
	n := c.outstanding.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			return true
		}
	}
}

func (c *countingSource) Release() {
	c.outstanding.Add(-1)
	c.inner.Release()
}

// TestBudgetSemantics pins the counting-semaphore contract: capacity
// tokens exactly, non-blocking TryAcquire, Acquire honoring cancel, and a
// panic on an unmatched Release.
func TestBudgetSemantics(t *testing.T) {
	b := NewBudget(2)
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("fresh budget must hold its capacity in tokens")
	}
	if b.TryAcquire() {
		t.Fatal("TryAcquire succeeded past capacity")
	}
	canceled := make(chan struct{})
	close(canceled)
	if b.Acquire(canceled) {
		t.Fatal("Acquire succeeded on a closed cancel channel with no tokens")
	}
	b.Release()
	if !b.Acquire(nil) {
		t.Fatal("Acquire failed with a token free")
	}
	b.Release()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("unmatched Release did not panic")
		}
	}()
	b.Release()
}

// TestBudgetedRunMatchesUnbudgeted is the budget half of the determinism
// guarantee: a run whose extra workers are gated (and mostly refused) by a
// near-empty budget folds the exact same aggregate as an unconstrained
// run — the budget throttles goroutines, never results. The counting
// wrapper proves the gate was honored: outstanding budgeted workers never
// exceeded the budget's capacity, and every acquire was released.
func TestBudgetedRunMatchesUnbudgeted(t *testing.T) {
	jobs := testJobs(t, 12)
	want, err := RunSummary(jobs, Options{Workers: 8, Shards: 8}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tokens := range []int{1, 2, 8} {
		src := &countingSource{inner: NewBudget(tokens)}
		got, err := RunSummary(jobs, Options{Workers: 8, Shards: 8, Budget: src}, SummaryConfig{})
		if err != nil {
			t.Fatalf("tokens=%d: %v", tokens, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tokens=%d: budgeted aggregate differs from unbudgeted", tokens)
		}
		if peak := src.peak.Load(); peak > int64(tokens) {
			t.Fatalf("tokens=%d: %d budgeted workers outstanding at peak", tokens, peak)
		}
		if n := src.outstanding.Load(); n != 0 {
			t.Fatalf("tokens=%d: %d tokens leaked", tokens, n)
		}
	}
}

// TestBudgetAcquireBlocksUntilRelease covers the blocking path the cell
// dispatcher uses: Acquire parks until another holder releases.
func TestBudgetAcquireBlocksUntilRelease(t *testing.T) {
	b := NewBudget(1)
	if !b.TryAcquire() {
		t.Fatal("TryAcquire failed on fresh budget")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	acquired := make(chan struct{})
	go func() {
		defer wg.Done()
		if b.Acquire(nil) {
			close(acquired)
			b.Release()
		}
	}()
	select {
	case <-acquired:
		t.Fatal("Acquire returned with no token free")
	default:
	}
	b.Release()
	wg.Wait()
	<-acquired
}

// TestSummaryAccumulatorSteadyStateAllocs pins the O(workers) accumulator
// property: a transient accumulator with Reset recycles merged-out shard
// partials, so a 64-shard single-worker run allocates at most two
// summaries (the merged prefix and one scratch) — not one per shard.
func TestSummaryAccumulatorSteadyStateAllocs(t *testing.T) {
	jobs := testJobs(t, 16)
	acc := SummaryAccumulator(SummaryConfig{})
	var news atomic.Int64
	inner := acc.New
	acc.New = func() *Summary {
		news.Add(1)
		return inner()
	}
	got, err := Run(jobs, Options{Workers: 1, Shards: 16}, acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs != int64(len(jobs)) {
		t.Fatalf("folded %d jobs, want %d", got.Jobs, len(jobs))
	}
	if n := news.Load(); n > 2 {
		t.Fatalf("16 shards on 1 worker allocated %d summaries, want <= 2", n)
	}
	// The recycled result must still match a fresh-accumulator run exactly.
	want, err := RunSummary(jobs, Options{Workers: 1, Shards: 16}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recycled accumulators changed the aggregate")
	}
}
