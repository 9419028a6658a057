package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunIntoMatchesRun is the reuse contract: RunSourceInto writing over a
// dirty, previously-used Result must leave it deeply equal to what a
// fresh Run returns — across traces of different shapes and durations, so
// stale slice contents from a longer earlier run can never leak into a
// shorter later one.
func TestRunIntoMatchesRun(t *testing.T) {
	e := NewEngine()
	var res Result
	opts := &Options{RecordDecisions: true, RecordEpisodes: true}
	for i, tr := range []workloadTrace{
		{workload.Email(), 11, 2 * time.Hour},
		{workload.IM(), 3, 20 * time.Minute},
		{workload.News(), 7, time.Hour},
		{workload.Email(), 5, 5 * time.Minute},
	} {
		trace := workload.Generate(tr.app, tr.seed, tr.dur)
		want, err := Run(trace, prof(), &policy.FixedTail{Wait: 2 * time.Second}, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunSourceInto(&res, trace.Source(), prof(), &policy.FixedTail{Wait: 2 * time.Second}, nil, opts); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&res, want) {
			t.Fatalf("case %d: RunSourceInto result differs from Run", i)
		}
	}
}

type workloadTrace struct {
	app  workload.AppModel
	seed int64
	dur  time.Duration
}

// TestRunWaitAllocs pins the allocations of a warm RunSourceInto of a
// fixed tail from an rrcstream slab, as perfbench's allocs_per_replay
// measures it: one, the policy's Name. The one-rule RunWaits pass this
// replay takes must add none.
func TestRunWaitAllocs(t *testing.T) {
	slab, err := trace.EncodeStream(workload.Verizon3GUsers()[0].Stream(7, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	var res Result
	var src trace.BytesSource
	ft := &policy.FixedTail{Wait: 4500 * time.Millisecond}
	opts := &Options{BurstGap: time.Second}
	allocs := testing.AllocsPerRun(20, func() {
		if err := src.Reset(slab); err != nil {
			t.Fatal(err)
		}
		if err := e.RunSourceInto(&res, &src, prof(), ft, nil, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm fixed-tail replay made %v allocations, want at most 1", allocs)
	}
}
