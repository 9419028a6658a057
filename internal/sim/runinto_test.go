package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/policy"
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
