package workload

import (
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// TestCohortPlans: each built-in family resolves to the right mixes and
// population knobs.
func TestCohortPlans(t *testing.T) {
	r := Cohorts()

	plan, err := r.Plan(spec.Spec{Name: "study-3g"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Mixes) != len(Verizon3GUsers()) || plan.Users != 100 ||
		plan.Duration != 4*time.Hour || !plan.Diurnal || plan.SeedStride != 1 {
		t.Fatalf("study-3g default plan: %+v", plan)
	}

	plan, err = r.Plan(spec.Spec{Name: "study-lte", Params: map[string]any{
		"users": 7, "duration": "90m", "diurnal": false, "seedstride": 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Mixes) != len(VerizonLTEUsers()) || plan.Users != 7 ||
		plan.Duration != 90*time.Minute || plan.Diurnal || plan.SeedStride != 3 {
		t.Fatalf("study-lte plan: %+v", plan)
	}

	plan, err = r.Plan(spec.Spec{Name: "mix", Params: map[string]any{"im": 2, "social": 1, "news": 0, "email": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Mixes) != 1 {
		t.Fatalf("mix should be homogeneous, got %d mixes", len(plan.Mixes))
	}
	names := make([]string, 0, len(plan.Mixes[0].Apps))
	for _, a := range plan.Mixes[0].Apps {
		names = append(names, a.Name())
	}
	if got := strings.Join(names, ","); got != "IM,IM,Social" {
		t.Fatalf("mix apps %q, want IM,IM,Social (Fig. 9 order, weight-expanded)", got)
	}
}

// TestCohortRejections: out-of-range knobs and degenerate mixes fail at
// resolution, before any fleet spins up.
func TestCohortRejections(t *testing.T) {
	r := Cohorts()
	bad := []spec.Spec{
		{Name: "commuters"},
		{Name: "study-3g", Params: map[string]any{"users": 0}},
		{Name: "study-3g", Params: map[string]any{"users": MaxCohortUsers + 1}},
		{Name: "study-3g", Params: map[string]any{"duration": "31d"}}, // bad syntax AND out of range
		{Name: "study-3g", Params: map[string]any{"duration": "0s"}},
		{Name: "study-3g", Params: map[string]any{"duration": "800h"}},
		{Name: "study-3g", Params: map[string]any{"im": 1}},                   // app weights only on mix
		{Name: "mix", Params: map[string]any{"im": 0, "email": 0, "news": 0}}, // all weights zero
		{Name: "mix", Params: map[string]any{"im": 99}},
	}
	for i, s := range bad {
		if _, err := r.Plan(s); err == nil {
			t.Errorf("spec %d (%+v) accepted", i, s)
		}
	}
}

// canonical reads a cohort spec's canonical encoding off its Resolution.
func canonical(r *CohortRegistry, s spec.Spec) (string, error) {
	res, err := r.Resolution(s)
	return res.Canonical, err
}

// TestCohortCanonicalStability: omitted defaults, param order and value
// spellings encode identically; any knob change moves the encoding.
func TestCohortCanonicalStability(t *testing.T) {
	r := Cohorts()
	want, err := canonical(r, spec.Spec{Name: "study-3g", Params: map[string]any{"users": 50}})
	if err != nil {
		t.Fatal(err)
	}
	same, err := canonical(r, spec.Spec{Name: "study-3g", Params: map[string]any{
		"duration": "4h", "users": "50", "diurnal": true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if same != want {
		t.Fatalf("equivalent cohorts encode differently: %q vs %q", same, want)
	}
	for _, mutated := range []map[string]any{
		{"users": 51},
		{"users": 50, "duration": "5h"},
		{"users": 50, "diurnal": false},
		{"users": 50, "seedstride": 2},
	} {
		got, err := canonical(r, spec.Spec{Name: "study-3g", Params: mutated})
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			t.Errorf("mutation %+v did not change the encoding", mutated)
		}
	}
}
