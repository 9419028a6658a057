package jobs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/workload"
)

func testSpec(users int) Spec { return cellSpec(users, 7, "15m") }

// cellSpec is a one-cell job: MakeIdle on Verizon 3G over a study-3g
// cohort of users traces of the given duration.
func cellSpec(users int, seed int64, duration string) Spec {
	return Spec{Seed: seed,
		Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "makeidle"}}},
		Profiles: []power.ProfileSpec{{Name: "verizon-3g"}},
		Cohorts: []fleet.CohortSpec{{Name: "study-3g",
			Params: map[string]any{"users": users, "duration": duration}}},
	}
}

// blockingRunner returns a fake fleet runner that reports one partial,
// signals `started`, then blocks until its Cancel channel closes (returning
// ErrCanceled) or `release` closes (returning an empty summary).
func blockingRunner(started, release chan struct{}) runFleetFunc {
	return func(fjobs []fleet.Job, opts fleet.Options, cfg fleet.SummaryConfig,
		onProgress func(func() *fleet.Summary, fleet.Progress)) (*fleet.Summary, error) {
		if onProgress != nil {
			onProgress(func() *fleet.Summary { return fleet.NewSummary(cfg) },
				fleet.Progress{DoneShards: 1, Shards: 4, DoneJobs: 1, TotalJobs: len(fjobs)})
		}
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-opts.Cancel:
			return nil, fleet.ErrCanceled
		case <-release:
			return fleet.NewSummary(cfg), nil
		}
	}
}

// TestQueueFullRejection fills the bounded queue behind a blocked runner
// and expects ErrQueueFull — fail-fast backpressure, not buffering.
func TestQueueFullRejection(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Config{QueueDepth: 2, Runners: 1, CacheSize: -1,
		runFleet: blockingRunner(started, release)})
	defer m.Close()

	// First job occupies the runner; the queue is empty again once popped.
	if _, err := m.Submit(testSpec(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	// Two more fill the depth-2 queue (distinct specs: caching is off but
	// fingerprints must differ anyway to mirror real traffic).
	for i := 2; i <= 3; i++ {
		if _, err := m.Submit(testSpec(i)); err != nil {
			t.Fatalf("job %d should queue: %v", i, err)
		}
	}
	_, err := m.Submit(testSpec(4))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
}

// TestCancelRunningJob cancels a job mid-run (the fake runner is blocked
// between shards on the fleet Cancel channel) and expects the canceled
// terminal state with ErrCanceled.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Config{Runners: 1, CacheSize: -1,
		runFleet: blockingRunner(started, release)})
	defer m.Close()

	job, err := m.Submit(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if st := job.Status(); st.State != StateRunning || st.Progress.DoneShards != 1 {
		t.Fatalf("before cancel: %+v", st)
	}
	if job.Partial() == nil {
		t.Fatal("no partial snapshot before cancel")
	}
	if _, ok := m.Cancel(job.ID()); !ok {
		t.Fatal("cancel: job not found")
	}
	<-job.Done()
	st := job.Status()
	if st.State != StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	if !errors.Is(job.Err(), fleet.ErrCanceled) {
		t.Fatalf("err %v, want ErrCanceled", job.Err())
	}
	if job.Result() != nil {
		t.Fatal("canceled job exposes a result")
	}
}

// TestCancelQueuedJob cancels a job still in the queue: it must terminate
// immediately, before any runner touches it, and the runner must skip it.
func TestCancelQueuedJob(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	m := NewManager(Config{Runners: 1, CacheSize: -1,
		runFleet: blockingRunner(started, release)})
	defer m.Close()

	if _, err := m.Submit(testSpec(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Cancel(queued.ID()); !ok {
		t.Fatal("cancel: job not found")
	}
	<-queued.Done()
	if st := queued.Status(); st.State != StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	close(release) // let the first job finish; the runner must skip job 2
	<-mustGet(t, m, "job-000001").Done()
	if st := queued.Status(); st.State != StateCanceled {
		t.Fatalf("runner resurrected a canceled job: %+v", st)
	}
}

// TestCancelFreesQueueSlot cancels a queued job and expects its queue
// capacity back immediately — canceled entries must not hold admission
// slots while they wait to be popped and discarded.
func TestCancelFreesQueueSlot(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Config{QueueDepth: 1, Runners: 1, CacheSize: -1,
		runFleet: blockingRunner(started, release)})
	defer m.Close()

	if _, err := m.Submit(testSpec(1)); err != nil { // occupies the runner
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(testSpec(2)) // fills the depth-1 queue
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full, got %v", err)
	}
	if _, ok := m.Cancel(queued.ID()); !ok {
		t.Fatal("cancel: job not found")
	}
	<-queued.Done()
	if _, err := m.Submit(testSpec(3)); err != nil {
		t.Fatalf("canceled job still holds its queue slot: %v", err)
	}
}

// TestRegistryRetention bounds the job registry: beyond MaxRecords the
// oldest terminal jobs are forgotten, live ones never.
func TestRegistryRetention(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Config{QueueDepth: 16, Runners: 1, CacheSize: -1, MaxRecords: 3,
		runFleet: blockingRunner(started, release)})
	defer m.Close()

	running, err := m.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var canceled []*Job
	for i := 2; i <= 6; i++ {
		j, err := m.Submit(testSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		m.Cancel(j.ID())
		<-j.Done()
		canceled = append(canceled, j)
	}
	if n := m.Len(); n > 3 {
		t.Fatalf("registry holds %d jobs, want <= MaxRecords(3)", n)
	}
	if _, ok := m.Get(running.ID()); !ok {
		t.Fatal("live job was evicted")
	}
	if _, ok := m.Get(canceled[0].ID()); ok {
		t.Fatal("oldest terminal job not evicted")
	}
}

// TestSpecLimits rejects jobs whose admitted footprint is unbounded.
func TestSpecLimits(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	shards := testSpec(1)
	shards.Shards = MaxShards + 1
	for _, spec := range []Spec{
		testSpec(workload.MaxCohortUsers + 1),
		cellSpec(1, 7, "744h"),
		shards,
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Fatalf("oversized spec %+v accepted", spec)
		}
	}
}

// TestCacheHitIsByteIdentical runs a real (small) cohort cold, resubmits
// the same spec, and requires a cache hit whose rendered JSON/CSV bytes
// are identical to the cold run's — the service's acceptance criterion.
func TestCacheHitIsByteIdentical(t *testing.T) {
	m := NewManager(Config{Runners: 1})
	defer m.Close()
	spec := cellSpec(3, 11, "10m")
	spec.Shards = 4

	cold, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-cold.Done()
	if st := cold.Status(); st.State != StateDone || st.CacheHit {
		t.Fatalf("cold run: %+v (err %v)", st, cold.Err())
	}
	warm, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-warm.Done()
	st := warm.Status()
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("warm run not a cache hit: %+v", st)
	}
	if st.Fingerprint != cold.Status().Fingerprint {
		t.Fatal("fingerprints differ for identical specs")
	}
	cr, wr := cold.Result(), warm.Result()
	if cr == nil || wr == nil {
		t.Fatal("missing results")
	}
	crJSON, err := cr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wrJSON, err := wr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(crJSON, wrJSON) {
		t.Fatalf("cache hit JSON differs:\n%s\nvs\n%s", crJSON, wrJSON)
	}
	crCSV, err := cr.CSV()
	if err != nil {
		t.Fatal(err)
	}
	wrCSV, err := wr.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(crCSV, wrCSV) {
		t.Fatal("cache hit CSV differs")
	}
	if len(crJSON) == 0 || cr.Stats().Jobs != 3 {
		t.Fatalf("implausible result: %d JSON bytes, %d jobs", len(crJSON), cr.Stats().Jobs)
	}
	// A different spec must not hit the cache.
	otherSpec := spec
	otherSpec.Seed = 12
	other, err := m.Submit(otherSpec)
	if err != nil {
		t.Fatal(err)
	}
	if other.Status().CacheHit {
		t.Fatal("different seed produced a cache hit")
	}
	<-other.Done()
}

// TestFingerprintSensitivity checks every cache-key component moves the
// fingerprint, and that normalization (defaults) does not.
func TestFingerprintSensitivity(t *testing.T) {
	raw := cellSpec(10, 1, "4h")
	base := raw.withDefaults()
	fp := base.mustFingerprint(t)
	if explicit := base.mustFingerprint(t); explicit != fp {
		t.Fatal("fingerprint not stable")
	}
	if raw.mustFingerprint(t) != fp {
		t.Fatal("normalization changed the fingerprint")
	}
	with := func(f func(*Spec)) Spec {
		s := cellSpec(10, 1, "4h")
		f(&s)
		return s
	}
	mutate := []Spec{
		cellSpec(11, 1, "4h"),
		cellSpec(10, 2, "4h"),
		cellSpec(10, 1, "1h"),
		with(func(s *Spec) { s.Profiles[0].Name = "att-hspa+" }),
		with(func(s *Spec) { s.Schemes[0].Policy.Name = "oracle" }),
		with(func(s *Spec) { s.Schemes[0].Active = &policy.Spec{Name: "learn"} }),
		with(func(s *Spec) { s.Shards = 7 }),
	}
	seen := map[string]bool{fp: true}
	for i, s := range mutate {
		got := s.mustFingerprint(t)
		if seen[got] {
			t.Fatalf("mutation %d did not change the fingerprint", i)
		}
		seen[got] = true
	}
}

// TestSubmitValidation rejects bad specs before they reach the queue.
func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	unknown := func(f func(*Spec)) Spec {
		s := testSpec(1)
		f(&s)
		return s
	}
	for _, spec := range []Spec{
		{}, // no axes
		unknown(func(s *Spec) { s.Profiles[0].Name = "Nokia 1G" }),
		unknown(func(s *Spec) { s.Schemes[0].Policy.Name = "extra-fast" }),
		unknown(func(s *Spec) { s.Schemes[0].Active = &policy.Spec{Name: "procrastinator"} }),
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Fatalf("spec %+v accepted", spec)
		}
	}
}

func mustGet(t *testing.T, m *Manager, id string) *Job {
	t.Helper()
	j, ok := m.Get(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	return j
}

// TestTerminalJobsReleasePlan: a finished job and a job canceled while
// queued stay in the registry, but neither pins its grid plan — not
// through the job record, and not through the executor its partial
// closure keeps alive. A finalizer on the plan's backing array must run
// once both jobs are terminal.
func TestTerminalJobsReleasePlan(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	m := NewManager(Config{Runners: 1, CacheSize: -1,
		runFleet: blockingRunner(started, release)})
	defer m.Close()

	collected := make(chan string, 2)
	watchPlan := func(job *Job, name string) {
		job.mu.Lock()
		defer job.mu.Unlock()
		runtime.SetFinalizer(&job.cells[0], func(*gridCell) { collected <- name })
	}
	running, err := m.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	watchPlan(running, "finished")
	queued, err := m.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	watchPlan(queued, "canceled while queued")
	m.Cancel(queued.ID())
	<-queued.Done()
	close(release)
	<-running.Done()
	if running.Status().State != StateDone || running.Partial() == nil {
		t.Fatalf("first job: %+v", running.Status())
	}
	for _, j := range []*Job{running, queued} {
		j.mu.Lock()
		held := j.cells != nil
		j.mu.Unlock()
		if held {
			t.Errorf("%s: terminal job still holds its plan", j.ID())
		}
	}

	released := map[string]bool{}
	for i := 0; i < 50 && len(released) < 2; i++ {
		runtime.GC()
		select {
		case name := <-collected:
			released[name] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, name := range []string{"finished", "canceled while queued"} {
		if !released[name] {
			t.Errorf("%s job's plan is still reachable", name)
		}
	}
	// Both records (and so whatever they reference) stay registered.
	mustGet(t, m, running.ID())
	mustGet(t, m, queued.ID())
}

// TestStoreMislabeledCellRecomputed plants, under one cell's key, another
// cell's record: it passes the store's digest check and decodes as a
// cell, but its axis labels do not match the plan. The manager must
// quarantine it rather than serve or cache it, and recompute the cell.
func TestStoreMislabeledCellRecomputed(t *testing.T) {
	spec := Spec{Seed: 9, Shards: 2,
		Schemes:  resumeSchemes[:2],
		Profiles: resumeProfiles[:1],
		Cohorts:  resumeCohorts[:1],
	}
	ref, refStore := storeManager(t, t.TempDir())
	want := runSpec(t, ref, spec)
	ref.Close()
	other, ok := refStore.Get(want.Cells[1].Key)
	refStore.Close()
	if !ok {
		t.Fatal("reference run stored no record for cell 1")
	}

	m, st := storeManager(t, t.TempDir())
	defer st.Close()
	defer m.Close()
	key := want.Cells[0].Key
	if err := st.Put(key, other); err != nil {
		t.Fatal(err)
	}
	got := runSpec(t, m, spec)
	if m.CellsExecuted() != 2 {
		t.Fatalf("executed %d cells, want 2 (a mislabeled record must not be served)", m.CellsExecuted())
	}
	assertSameResult(t, want, got)
	if stats := st.Stats(); stats.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", stats.Quarantined)
	}
	if c, ok := m.Cell(key); !ok || c.Scheme != want.Cells[0].Scheme {
		t.Fatalf("cell cache holds %+v (ok=%v) under cell 0's key", c, ok)
	}
}
