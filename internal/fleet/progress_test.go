package fleet

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/power"
	"repro/internal/trace"
)

// TestProgressCountsAreMonotoneAndComplete watches OnShard under a parallel
// run: counts must rise monotonically, never exceed the totals, and end
// exactly at (shards, jobs).
func TestProgressCountsAreMonotoneAndComplete(t *testing.T) {
	jobs := testJobs(t, 12)
	var (
		mu   sync.Mutex
		seen []Progress
	)
	opts := Options{Workers: 8, Shards: 6, OnShard: func(p Progress) {
		mu.Lock()
		seen = append(seen, p)
		mu.Unlock()
	}}
	sum, err := RunSummary(jobs, opts, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != int64(len(jobs)) {
		t.Fatalf("summary folded %d jobs, want %d", sum.Jobs, len(jobs))
	}
	if len(seen) != 6 {
		t.Fatalf("OnShard fired %d times, want 6", len(seen))
	}
	for i, p := range seen {
		if p.Shards != 6 || p.TotalJobs != len(jobs) {
			t.Fatalf("event %d has wrong totals: %+v", i, p)
		}
		if p.DoneShards != i+1 {
			t.Fatalf("event %d: DoneShards=%d, want %d (serialized monotone counts)",
				i, p.DoneShards, i+1)
		}
		if i > 0 && p.DoneJobs <= seen[i-1].DoneJobs {
			t.Fatalf("event %d: DoneJobs not monotone: %d after %d",
				i, p.DoneJobs, seen[i-1].DoneJobs)
		}
	}
	if last := seen[len(seen)-1]; last.DoneJobs != len(jobs) {
		t.Fatalf("final DoneJobs=%d, want %d", last.DoneJobs, len(jobs))
	}
}

// TestRunSummaryWithProgressMatchesPlainRun is the invariant the service
// depends on: taking a partial snapshot after every shard — snap() called
// eagerly inside RunSummaryLazyProgress's hook — must not perturb the
// final shard-ordered reduction, and the last snapshot must equal the
// final summary exactly.
func TestRunSummaryWithProgressMatchesPlainRun(t *testing.T) {
	jobs := testJobs(t, 10)
	want, err := RunSummary(jobs, Options{Workers: 4, Shards: 5}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu        sync.Mutex
		snapshots []*Summary
	)
	got, err := RunSummaryLazyProgress(jobs, Options{Workers: 4, Shards: 5}, SummaryConfig{},
		func(snap func() *Summary, p Progress) {
			partial := snap()
			mu.Lock()
			snapshots = append(snapshots, partial)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("progress run diverged from plain run:\n%s\nvs\n%s", got, want)
	}
	if len(snapshots) != 5 {
		t.Fatalf("got %d snapshots, want 5", len(snapshots))
	}
	for i, s := range snapshots {
		if s.Jobs == 0 || s.Jobs > int64(len(jobs)) {
			t.Fatalf("snapshot %d folded %d jobs", i, s.Jobs)
		}
	}
	last := snapshots[len(snapshots)-1]
	if !reflect.DeepEqual(last, want) {
		t.Fatalf("final snapshot differs from final summary:\n%s\nvs\n%s", last, want)
	}
}

// TestCancelMidShard closes the cancel channel while a shard is mid-flight
// (a job's Source blocks until cancellation is requested) and expects
// ErrCanceled: the in-flight job finishes, the next one never starts.
func TestCancelMidShard(t *testing.T) {
	jobs := testJobs(t, 4)
	cancel := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	inner := jobs[1].Source
	jobs[1].Source = func(seed int64) trace.Source {
		once.Do(func() { close(entered) })
		<-cancel
		return inner(seed)
	}
	go func() {
		<-entered
		close(cancel)
	}()
	_, err := RunSummary(jobs, Options{Workers: 1, Shards: 1, Cancel: cancel}, SummaryConfig{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestCancelBeforeStart rejects the whole run when the channel is already
// closed: no job ever executes.
func TestCancelBeforeStart(t *testing.T) {
	jobs := testJobs(t, 4)
	ran := false
	jobs[0].Source = func(seed int64) trace.Source {
		ran = true
		return testCohort(1).Jobs(power.Verizon3G, []Scheme{MakeIdleScheme()})[0].Source(seed)
	}
	cancel := make(chan struct{})
	close(cancel)
	_, err := RunSummary(jobs, Options{Workers: 2, Cancel: cancel}, SummaryConfig{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("a job ran despite pre-closed cancel channel")
	}
}
