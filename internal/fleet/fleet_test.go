package fleet

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testCohort(users int) Cohort {
	return Cohort{Users: users, Seed: 7, Duration: 20 * time.Minute, Mixes: workload.Verizon3GUsers()}
}

func testJobs(t *testing.T, users int) []Job {
	t.Helper()
	return testCohort(users).Jobs(power.Verizon3G, []Scheme{MakeIdleScheme(), CombinedScheme()})
}

// TestShardRangeCoversAllJobs checks the contiguous partition is exact:
// every job in exactly one shard, order preserved.
func TestShardRangeCoversAllJobs(t *testing.T) {
	for _, tc := range []struct{ jobs, shards int }{
		{1, 1}, {5, 2}, {7, 7}, {64, 5}, {100, 64}, {3, 64},
	} {
		next := 0
		for s := 0; s < tc.shards && s < tc.jobs; s++ {
			lo, hi := shardRange(tc.jobs, s, min(tc.shards, tc.jobs))
			if lo != next {
				t.Fatalf("jobs=%d shards=%d: shard %d starts at %d, want %d",
					tc.jobs, tc.shards, s, lo, next)
			}
			if hi <= lo {
				t.Fatalf("jobs=%d shards=%d: empty shard %d", tc.jobs, tc.shards, s)
			}
			next = hi
		}
		if next != tc.jobs {
			t.Fatalf("jobs=%d shards=%d: covered %d jobs", tc.jobs, tc.shards, next)
		}
	}
}

// TestDeterministicAcrossWorkerCounts is the tentpole guarantee: the same
// seed must yield bit-identical aggregates under 1, 4 and 16 workers.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testJobs(t, 12)
	var want *Summary
	for _, workers := range []int{1, 4, 16} {
		got, err := RunSummary(jobs, Options{Workers: workers}, SummaryConfig{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Jobs != int64(len(jobs)) {
			t.Fatalf("workers=%d: folded %d jobs, want %d", workers, got.Jobs, len(jobs))
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: aggregates differ from workers=1:\n%s\nvs\n%s",
				workers, got, want)
		}
	}
	// Sanity: the aggregate is not vacuous — MakeIdle saves energy on this
	// workload and the histograms saw every user.
	mi := want.Schemes["MakeIdle"]
	if mi == nil || mi.SavingsPct.N != 12 || mi.SavingsPct.Mean <= 0 {
		t.Fatalf("MakeIdle aggregate implausible: %+v", mi)
	}
	if mi.EnergyHist.Count() != 12 {
		t.Fatalf("energy histogram saw %d users", mi.EnergyHist.Count())
	}
}

// TestDeterministicWithExplicitShards pins shards explicitly (as the CLIs
// can) and again demands identical results for every worker count.
func TestDeterministicWithExplicitShards(t *testing.T) {
	jobs := testJobs(t, 9)
	var want *Summary
	for _, workers := range []int{1, 3, 16} {
		got, err := RunSummary(jobs, Options{Workers: workers, Shards: 5}, SummaryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d shards=5 differs", workers)
		}
	}
}

// TestConcurrentFoldIsolation runs a custom accumulator under many workers;
// with -race this doubles as the concurrency test (per-shard accumulators
// must never be shared between goroutines).
func TestConcurrentFoldIsolation(t *testing.T) {
	jobs := testJobs(t, 16)
	var folds atomic.Int64
	type counts struct{ jobs, delays int }
	acc := Accumulator[*counts]{
		New: func() *counts { return &counts{} },
		Fold: func(c *counts, out Outcome) *counts {
			folds.Add(1)
			c.jobs++
			c.delays += len(out.Result.BurstDelays)
			return c
		},
		Merge: func(a, b *counts) *counts {
			a.jobs += b.jobs
			a.delays += b.delays
			return a
		},
	}
	got, err := Run(jobs, Options{Workers: 16, Shards: 16}, acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.jobs != len(jobs) || folds.Load() != int64(len(jobs)) {
		t.Fatalf("folded %d/%d jobs (merge saw %d)", folds.Load(), len(jobs), got.jobs)
	}
}

// TestRunPropagatesFirstErrorInJobOrder makes a mid-fleet job fail and
// checks the error is deterministic (first failing job in order), not
// whichever shard lost the race.
func TestRunPropagatesFirstErrorInJobOrder(t *testing.T) {
	jobs := testJobs(t, 8)
	boom := fmt.Errorf("boom")
	jobs[5].Demote = func(trace.Trace, power.Profile) (policy.DemotePolicy, error) {
		return nil, boom
	}
	jobs[11].Demote = jobs[5].Demote
	for _, workers := range []int{1, 8} {
		_, err := RunSummary(jobs, Options{Workers: workers, Shards: 8}, SummaryConfig{})
		if err == nil {
			t.Fatalf("workers=%d: error not propagated", workers)
		}
		want := "fleet: job 5"
		if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
			t.Fatalf("workers=%d: got error %q, want prefix %q", workers, got, want)
		}
	}
}

// TestJobValidation rejects unusable jobs up front.
func TestJobValidation(t *testing.T) {
	if _, err := RunSummary([]Job{{Profile: power.Verizon3G}}, Options{}, SummaryConfig{}); err == nil {
		t.Fatal("job without source accepted")
	}
	jobs := testJobs(t, 1)
	jobs[0].Demote = nil
	if _, err := RunSummary(jobs, Options{}, SummaryConfig{}); err == nil {
		t.Fatal("job without demote factory accepted")
	}
}

// TestEmptyJobList returns an empty (usable) aggregate.
func TestEmptyJobList(t *testing.T) {
	s, err := RunSummary(nil, Options{}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs != 0 || len(s.Schemes) != 0 {
		t.Fatalf("empty run produced %+v", s)
	}
}

// TestExplicitTraceJobs replays a materialized trace through a slice-backed
// Source with a trace-fitted baseline, as the experiment drivers submit them.
func TestExplicitTraceJobs(t *testing.T) {
	base := Cohort{Users: 1, Seed: 3, Duration: 15 * time.Minute, Mixes: workload.Verizon3GUsers()}
	src := base.Jobs(power.Verizon3G, []Scheme{MakeIdleScheme()})[0].Source
	fixed, err := trace.Collect(src(base.Seed))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{
		Seed:    1,
		Source:  func(int64) trace.Source { return fixed.Source() },
		Profile: power.Verizon3G,
		Scheme:  "95% IAT",
		Demote: func(tr trace.Trace, _ power.Profile) (policy.DemotePolicy, error) {
			return policy.NewPercentileIAT(tr, 0.95), nil
		},
		DemoteFit: FitKey{Spec: "pctiat(q=0.95)", ProfileFree: true},
		Baseline:  true,
	}}
	s, err := RunSummary(jobs, Options{}, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Schemes["95% IAT"].Energy.N != 1 {
		t.Fatalf("trace job not aggregated: %s", s)
	}
}
