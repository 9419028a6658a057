package fleet_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"

	"repro/internal/fleet"
)

// summaryJSON renders a summary the way the HTTP service does, so
// equality here is the service-level byte-identity guarantee.
func summaryJSON(t *testing.T, s *fleet.Summary) []byte {
	t.Helper()
	b, err := report.JSON(report.SummaryStatsOf(s))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// materialize collects each Source job's packets into a slice and rebinds
// the job to a slice-backed source over it, without changing anything else.
func materialize(t *testing.T, jobs []fleet.Job) []fleet.Job {
	t.Helper()
	out := make([]fleet.Job, len(jobs))
	for i, j := range jobs {
		tr, err := trace.Collect(j.Source(j.Seed))
		if err != nil {
			t.Fatal(err)
		}
		j.Source = func(int64) trace.Source { return tr.Source() }
		out[i] = j
	}
	return out
}

// TestStreamedCohortMatchesMaterialized is the fleet-level determinism
// property: the same cohort replayed from source constructors (streaming,
// O(1) per worker) and from materialized traces produces byte-identical
// rendered summaries at every worker count.
func TestStreamedCohortMatchesMaterialized(t *testing.T) {
	cohort := fleet.Cohort{Users: 10, Seed: 5, Duration: 45 * time.Minute, Diurnal: true, Mixes: workload.Verizon3GUsers()}
	schemes := []fleet.Scheme{fleet.MakeIdleScheme(), fleet.CombinedScheme()}
	streamed := cohort.Jobs(power.Verizon3G, schemes)
	slices := materialize(t, cohort.Jobs(power.Verizon3G, schemes))

	var want []byte
	for _, workers := range []int{1, 3, 8} {
		opts := fleet.Options{Workers: workers, Shards: 4}
		s1, err := fleet.RunSummary(streamed, opts, fleet.SummaryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := fleet.RunSummary(slices, opts, fleet.SummaryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		j1, j2 := summaryJSON(t, s1), summaryJSON(t, s2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("workers=%d: streamed and materialized summaries differ:\n%s\nvs\n%s", workers, j1, j2)
		}
		if want == nil {
			want = j1
		} else if !bytes.Equal(want, j1) {
			t.Fatalf("workers=%d: summary differs from workers=1 run", workers)
		}
	}
}

// TestFitTraceSchemeStreams: a trace-fitted scheme (95% IAT) on Source
// jobs materializes in-worker and still matches the slice-backed run.
func TestFitTraceSchemeStreams(t *testing.T) {
	scheme := registryScheme(t, "95iat", "")
	if !scheme.FitTrace {
		t.Fatal("95iat scheme not marked trace-fitted")
	}
	cohort := fleet.Cohort{Users: 4, Seed: 9, Duration: 30 * time.Minute, Mixes: workload.Verizon3GUsers()}
	streamed := cohort.Jobs(power.Verizon3G, []fleet.Scheme{scheme})
	slices := materialize(t, cohort.Jobs(power.Verizon3G, []fleet.Scheme{scheme}))
	s1, err := fleet.RunSummary(streamed, fleet.Options{Workers: 2, Shards: 2}, fleet.SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := fleet.RunSummary(slices, fleet.Options{Workers: 2, Shards: 2}, fleet.SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryJSON(t, s1), summaryJSON(t, s2)) {
		t.Fatal("trace-fitted streamed run differs from materialized run")
	}
	if s1.Schemes[scheme.Name].Energy.N != 4 {
		t.Fatalf("folded %d users, want 4", s1.Schemes[scheme.Name].Energy.N)
	}
}

// TestFitPassSeesTraceThenReplayStreams: a fitted Source job hands its
// policy factories the materialized trace exactly once (the fit pass) and
// still produces results identical to a fully materialized run — the
// factories must not rely on the trace surviving into the replay, because
// the worker drops it before replaying.
func TestFitPassSeesTraceThenReplayStreams(t *testing.T) {
	cohort := fleet.Cohort{Users: 3, Seed: 13, Duration: 20 * time.Minute, Mixes: workload.Verizon3GUsers()}
	var fits, calls int
	scheme := fleet.Scheme{
		Name:      "recording-95iat",
		FitTrace:  true,
		DemoteFit: fleet.FitKey{Spec: "recording-95iat", ProfileFree: true},
		Demote: func(tr trace.Trace, _ power.Profile) (policy.DemotePolicy, error) {
			calls++
			if tr == nil {
				t.Error("fitted factory called with a nil trace")
			} else {
				fits++
			}
			return policy.NewPercentileIAT(tr, 0.95), nil
		},
	}
	streamed := cohort.Jobs(power.Verizon3G, []fleet.Scheme{scheme})
	s1, err := fleet.RunSummary(streamed, fleet.Options{Workers: 1, Shards: 1}, fleet.SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || fits != 3 {
		t.Fatalf("factory saw %d/%d materialized traces, want 3/3", fits, calls)
	}
	slices := materialize(t, cohort.Jobs(power.Verizon3G, []fleet.Scheme{scheme}))
	s2, err := fleet.RunSummary(slices, fleet.Options{Workers: 1, Shards: 1}, fleet.SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryJSON(t, s1), summaryJSON(t, s2)) {
		t.Fatal("fit-then-stream run differs from materialized run")
	}
}

// TestOnlineSchemesNotMarkedFitted: the fleet-scale schemes stay
// streaming-eligible.
func TestOnlineSchemesNotMarkedFitted(t *testing.T) {
	for _, name := range []string{"statusquo", "4.5s", "oracle", "makeidle"} {
		if registryScheme(t, name, "learn").FitTrace {
			t.Errorf("%s+learn wrongly marked trace-fitted", name)
		}
	}
	if !registryScheme(t, "makeidle", fleet.ActiveFix).FitTrace {
		t.Error("active=fix not marked trace-fitted")
	}
}

// registryScheme resolves a demote policy name plus an optional active
// policy name through the default registry.
func registryScheme(t *testing.T, demote, active string) fleet.Scheme {
	t.Helper()
	ss := fleet.SchemeSpec{Policy: policy.Spec{Name: demote}}
	if active != "" {
		ss.Active = &policy.Spec{Name: active}
	}
	rs, err := fleet.ResolveScheme(policy.Default(), ss)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Scheme
}
