package jobs

// The cell executor: one grid job's cells dispatch concurrently onto the
// manager-wide worker budget while results are collected in planned cell
// order, so every rendering, partial snapshot and store record is
// byte-identical to a strictly sequential loop over the cells (which is
// what a one-token budget, Config.Workers = 1, runs).
//
// Roles:
//
//   - The dispatcher (one goroutine per job) walks the plan in cell order.
//     A cell found in a cache tier finishes its slot immediately, holding
//     no worker token. A frontier cell blocks for ONE budget token — the
//     cell's first fleet worker — before its goroutine launches, so at
//     most min(budget, cells) cells of a job are in flight. The fleet run
//     acquires any workers beyond the first from the same budget
//     opportunistically (fleet.Options.Budget), so replay goroutine
//     pressure is capped by the budget no matter how many cells or runner
//     jobs are in flight.
//
//   - Cell goroutines run the fleet, publish per-shard progress into their
//     slot, then write the finished cell through the cache and store
//     tiers. Store writes therefore happen in completion order rather than
//     plan order — safe, because the store keys records by the cell's
//     content address and concurrent same-key puts are idempotent upserts
//     of byte-identical records.
//
//   - The collector (the runner goroutine itself) awaits slots strictly in
//     plan order and assembles results exactly as the sequential loop did:
//     the cell list, the single-axis combined merge (cell order), the
//     terminal progress. Determinism follows: each cell's summary is a
//     pure function of its key (the fleet's shard-ordered reduction), and
//     every ordered artifact is assembled from those summaries in plan
//     order — scheduling decides only WHEN a cell's bytes exist, never
//     what they are.
//
// Cancellation and failure drain: the dispatcher stops launching (marking
// undispatched slots canceled), in-flight cells observe job.cancel through
// the fleet and return, and the collector waits for the dispatcher and
// every launched cell goroutine before finishing the job — neither ever
// outlives its job, so Manager.Close's drain semantics are unchanged.

import (
	"errors"
	"sync"

	"repro/internal/fleet"
)

// cellSlot carries one planned cell's execution state between the
// goroutine computing it and the collector.
type cellSlot struct {
	res  *CellResult
	err  error
	done chan struct{} // closed once res/err are final

	// snap/prog are the in-flight fleet feed for partials; finished marks
	// res/err published. All guarded by cellExec.mu.
	snap     func() *fleet.Summary
	prog     fleet.Progress
	finished bool
}

// cellExec executes one job's planned cells. See the file comment.
type cellExec struct {
	m      *Manager
	job    *Job
	cells  []gridCell
	slots  []cellSlot
	opts   fleet.Options
	sumCfg fleet.SummaryConfig
	totals Progress
	single bool

	stop   chan struct{} // closed on first failure or at collector exit
	halted sync.Once
	haltCh chan struct{} // closed when stop OR job.cancel closes
	wg     sync.WaitGroup

	// mu guards the slots' live fields and orders setPartial installs so
	// published progress stays monotone.
	mu      sync.Mutex
	partial func() *fleet.Summary
}

func newCellExec(m *Manager, job *Job, spec Spec, cells []gridCell) *cellExec {
	e := &cellExec{
		m:     m,
		job:   job,
		cells: cells,
		slots: make([]cellSlot, len(cells)),
		opts: fleet.Options{
			Workers:    m.cfg.Workers,
			Shards:     spec.Shards,
			Cancel:     job.cancel,
			TraceCache: m.traces,
			Budget:     m.budget,
		},
		single: spec.singleAxis(),
		stop:   make(chan struct{}),
		haltCh: make(chan struct{}),
	}
	for i := range e.slots {
		e.slots[i].done = make(chan struct{})
	}
	for _, cell := range cells {
		e.totals.Shards += cell.Shards
		e.totals.TotalJobs += cell.NumJobs
	}
	// One partial closure for the whole job: installs advance the version,
	// and the closure reads slot state at materialize time, so per-shard
	// progress events allocate nothing. Contributions are gathered in plan
	// order — on a one-token budget that is exactly the sequential loop's
	// "merged prefix plus the in-flight cell's snapshot".
	if e.single {
		e.partial = e.partialSingleAxis
	} else {
		e.partial = e.partialGrid
	}
	return e
}

// run drives the job to a terminal state. It runs on the runner goroutine
// and is the only writer of job.finish for a running job.
func (e *cellExec) run() {
	go e.watchHalt()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.dispatch()
	}()

	results := make([]*CellResult, 0, len(e.cells))
	var firstErr error
	for i := range e.slots {
		<-e.slots[i].done
		if err := e.slots[i].err; err != nil {
			firstErr = err
			break
		}
		results = append(results, e.slots[i].res)
	}
	// Stop the dispatcher (it may still be walking the plan when the
	// collector broke on an error) and drain it and every launched cell
	// before finishing — a finished job must have no goroutines still
	// replaying. Then drop the plan: the job's partial closure keeps the
	// executor alive, and it reads only the slots.
	e.halt()
	e.wg.Wait()
	e.cells = nil

	if firstErr != nil {
		if errors.Is(firstErr, fleet.ErrCanceled) {
			e.job.finish(StateCanceled, nil, firstErr)
		} else {
			e.job.finish(StateFailed, nil, firstErr)
		}
		return
	}

	var combined *fleet.Summary
	if e.single {
		// Merging the cell summaries in cell order into one empty
		// aggregate reproduces, byte for byte, the incremental merge a
		// sequential run performs.
		combined = fleet.NewSummary(e.sumCfg)
		for _, r := range results {
			mustMerge(combined, r.Summary)
		}
	}
	done := Progress{Shards: e.totals.Shards, TotalJobs: e.totals.TotalJobs}
	for _, r := range results {
		done.DoneShards += r.shards
		done.DoneJobs += r.jobs
	}
	res := newResult(results, combined)
	res.Progress = done
	e.job.mu.Lock()
	e.job.progress = res.Progress
	e.job.mu.Unlock()
	e.m.mu.Lock()
	e.m.cache.put(e.job.fingerprint, res)
	e.m.mu.Unlock()
	e.job.finish(StateDone, res, nil)
}

// halt closes stop exactly once.
func (e *cellExec) halt() { e.halted.Do(func() { close(e.stop) }) }

// watchHalt folds job.cancel and stop into haltCh, the single channel the
// dispatcher's blocking acquires select on.
func (e *cellExec) watchHalt() {
	select {
	case <-e.job.cancel:
	case <-e.stop:
	}
	close(e.haltCh)
}

// dispatch walks the plan in cell order, finishing cached cells inline and
// launching one goroutine per frontier cell once it holds a budget token.
// It never outlives run(): every exit path first marks the remaining
// slots canceled so the collector cannot block on a slot nobody owns.
func (e *cellExec) dispatch() {
	for i := range e.cells {
		select {
		case <-e.haltCh:
			e.abandonFrom(i)
			return
		default:
		}
		cached, hit := e.m.lookupCell(e.cells[i].Key, &e.cells[i])
		if hit {
			e.finishSlot(i, cached, nil)
			continue
		}
		// The token acquired here is the cell's first fleet worker; the
		// run releases it (via runCell's defer) when the cell completes.
		if !e.m.budget.Acquire(e.haltCh) {
			e.abandonFrom(i)
			return
		}
		e.wg.Add(1)
		e.m.cellsLive.Add(1)
		go e.runCell(i)
	}
}

// abandonFrom marks slots i.. canceled (those not yet dispatched when the
// dispatcher bailed). Slots already finished by a cache hit are skipped;
// dispatched slots are owned by their cell goroutine and never appear here
// (the dispatcher abandons only indexes it has not reached).
func (e *cellExec) abandonFrom(i int) {
	for ; i < len(e.slots); i++ {
		e.mu.Lock()
		already := e.slots[i].finished
		if !already {
			e.slots[i].err = fleet.ErrCanceled
			e.slots[i].finished = true
		}
		e.mu.Unlock()
		if !already {
			close(e.slots[i].done)
		}
	}
}

// runCell executes one frontier cell: the fleet run (feeding per-shard
// progress into the slot), then the cache and store writes, then the slot
// publish. The deferred release returns the budget token the dispatcher
// acquired.
func (e *cellExec) runCell(i int) {
	defer e.wg.Done()
	defer e.m.cellsLive.Add(-1)
	defer e.m.budget.Release()

	cell := &e.cells[i]
	sum, err := e.m.cfg.runFleet(cell.Jobs(), e.opts, e.sumCfg,
		func(snap func() *fleet.Summary, p fleet.Progress) {
			e.cellProgress(i, snap, p)
		})
	if err != nil {
		// One failed cell fails the job; stop dispatching new ones.
		e.halt()
		e.finishSlot(i, nil, err)
		return
	}
	e.m.cellsRun.Add(1)
	res := newCellResult(*cell, sum)
	e.m.mu.Lock()
	e.m.cells.put(cell.Key, res)
	e.m.mu.Unlock()
	if e.m.cfg.Store != nil {
		// Best effort: a full disk or dying store must not fail the job —
		// the result is already in memory; durability just degrades.
		_ = e.m.cfg.Store.Put(cell.Key, encodeCellResult(res))
	}
	e.finishSlot(i, res, nil)
}

// cellProgress records a cell's in-flight fleet feed and republishes the
// job-level partial. Everything happens under mu, so installed progress
// counts are sums of per-slot monotone quantities read atomically —
// monotone end to end.
func (e *cellExec) cellProgress(i int, snap func() *fleet.Summary, p fleet.Progress) {
	e.mu.Lock()
	e.slots[i].snap = snap
	e.slots[i].prog = p
	e.publishLocked()
	e.mu.Unlock()
}

// finishSlot publishes a slot's terminal state and wakes the collector.
func (e *cellExec) finishSlot(i int, res *CellResult, err error) {
	e.mu.Lock()
	e.slots[i].res = res
	e.slots[i].err = err
	e.slots[i].finished = true
	e.slots[i].snap = nil // a finished slot's partial is its result
	if err == nil {
		e.publishLocked()
	}
	e.mu.Unlock()
	close(e.slots[i].done)
}

// publishLocked recomputes overall progress (finished cells at full
// weight, live cells at their fleet counts) and installs the job's lazy
// partial. Requires mu.
func (e *cellExec) publishLocked() {
	overall := Progress{Shards: e.totals.Shards, TotalJobs: e.totals.TotalJobs}
	any := false
	for i := range e.slots {
		s := &e.slots[i]
		switch {
		case s.finished && s.err == nil:
			overall.DoneShards += s.res.shards
			overall.DoneJobs += s.res.jobs
			any = true
		case !s.finished && s.snap != nil:
			overall.DoneShards += s.prog.DoneShards
			overall.DoneJobs += s.prog.DoneJobs
			any = true
		}
	}
	if any {
		e.job.setPartial(e.partial, overall)
	}
}

// partialSingleAxis merges, in plan order, every finished cell's summary
// plus every live cell's shard snapshot — on a one-token budget exactly
// the sequential loop's "completed prefix plus the in-flight cell". Runs at
// Job.Partial materialize time, never per progress event.
func (e *cellExec) partialSingleAxis() *fleet.Summary {
	e.mu.Lock()
	parts := make([]func() *fleet.Summary, 0, len(e.slots))
	for i := range e.slots {
		s := &e.slots[i]
		switch {
		case s.finished && s.err == nil:
			sum := s.res.Summary
			parts = append(parts, func() *fleet.Summary { return sum })
		case !s.finished && s.snap != nil:
			parts = append(parts, s.snap)
		}
	}
	e.mu.Unlock()
	// Snap calls happen outside mu: they take the fleet run's own lock.
	merged := fleet.NewSummary(e.sumCfg)
	for _, p := range parts {
		mustMerge(merged, p())
	}
	return merged
}

// partialGrid picks one cell to expose for multi-axis grids (scheme labels
// repeat across cells, so a cross-cell merge would conflate them): the
// earliest live cell's snapshot, else the latest finished cell's summary.
func (e *cellExec) partialGrid() *fleet.Summary {
	e.mu.Lock()
	var live func() *fleet.Summary
	var lastDone *fleet.Summary
	for i := range e.slots {
		s := &e.slots[i]
		switch {
		case s.finished && s.err == nil:
			lastDone = s.res.Summary
		case !s.finished && s.snap != nil && live == nil:
			live = s.snap
		}
	}
	e.mu.Unlock()
	if live != nil {
		return live()
	}
	return lastDone
}
