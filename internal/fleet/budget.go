package fleet

import "runtime"

// TokenSource is the seam between a fleet run and a machine-wide worker
// budget: a counting semaphore the run consults when spawning workers
// beyond its first. Injectable so tests can observe or bound acquisition;
// Budget is the production implementation.
//
// The contract runs on opportunism: TryAcquire never blocks, and a caller
// that fails to acquire simply runs with fewer workers — results never
// depend on the worker count, so budget pressure degrades throughput,
// not output.
type TokenSource interface {
	// TryAcquire takes one worker token when available; false means the
	// budget is exhausted right now.
	TryAcquire() bool
	// Release returns one token taken by TryAcquire (or, for Budget, by
	// Acquire).
	Release()
}

// Budget is a counting-semaphore TokenSource sized to a machine's worker
// capacity. One Budget is shared between inter-cell parallelism (a
// dispatcher blocks in Acquire for the token that admits a cell) and
// intra-cell shard workers (each extra worker TryAcquires), so the total
// number of replay goroutines stays bounded by the budget no matter how
// many cells, jobs, or runners are in flight.
type Budget struct {
	tokens chan struct{}
}

// NewBudget returns a budget of n tokens; n <= 0 sizes it to
// runtime.GOMAXPROCS(0).
func NewBudget(n int) *Budget {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	b := &Budget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// TryAcquire implements TokenSource.
func (b *Budget) TryAcquire() bool {
	select {
	case <-b.tokens:
		return true
	default:
		return false
	}
}

// Acquire blocks until a token is available or cancel closes; false means
// canceled (no token is held). Safe to call with a nil cancel channel
// (blocks until a token frees). Acquire cannot deadlock against the fleet:
// every held token belongs to a worker that completes without ever needing
// another token — extra workers are strictly opportunistic.
func (b *Budget) Acquire(cancel <-chan struct{}) bool {
	select {
	case <-b.tokens:
		return true
	case <-cancel:
		return false
	}
}

// Release implements TokenSource.
func (b *Budget) Release() {
	select {
	case b.tokens <- struct{}{}:
	default:
		panic("fleet: Budget.Release without matching Acquire")
	}
}
