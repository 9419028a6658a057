package jobs

import (
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
)

// TestPlanFingerprintMatchesFingerprint pins the contract that lets Submit
// derive validation, fingerprint and plan from one resolution pass: for any
// normalized spec, planFingerprint's digest is byte-for-byte the standalone
// Fingerprint(), whether the axis cache is absent, cold, or warm — and the
// planned cells (labels, keys, denominators) are identical in all three
// modes. A cache that changed any planned byte would silently corrupt the
// result cache, so this is the regression guard for axisCache.
func TestPlanFingerprintMatchesFingerprint(t *testing.T) {
	specs := map[string]Spec{
		"single": {Seed: 3,
			Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "makeidle"}}},
			Profiles: []power.ProfileSpec{{Name: "verizon-3g"}},
			Cohorts:  []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 5, "duration": "20m"}}},
		},
		"grid": {
			Seed:   1,
			Shards: 4,
			Schemes: []fleet.SchemeSpec{
				{Policy: policy.Spec{Name: "makeidle"}},
				{Label: "tail2s", Policy: policy.Spec{Name: "fixedtail",
					Params: map[string]any{"wait": "2s"}}},
				{Label: "batched", Policy: policy.Spec{Name: "makeidle"},
					Active: &policy.Spec{Name: fleet.ActiveFix}},
			},
			Profiles: []power.ProfileSpec{
				{Name: "verizon-3g"},
				{Label: "lte", Name: "verizon-lte"},
			},
			Cohorts: []fleet.CohortSpec{
				{Name: "study-3g", Params: map[string]any{"users": 4, "duration": "10m"}},
			},
		},
		// Alias spelling must fingerprint as its canonical resolution.
		"alias": {
			Seed:     9,
			Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "4.5s"}}},
			Profiles: []power.ProfileSpec{{Name: "Verizon 3G"}},
			Cohorts:  []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 2}}},
		},
	}
	for name, raw := range specs {
		t.Run(name, func(t *testing.T) {
			s := raw.withDefaults()
			want := s.Fingerprint()
			wantCells := len(s.Schemes) * len(s.Profiles) * len(s.Cohorts)
			opts := fleet.Options{Shards: s.Shards}

			shared := newAxisCache()
			var ref []gridCell
			passes := []struct {
				pass string
				axes *axisCache
			}{{"nil-cache", nil}, {"cold-cache", shared}, {"warm-cache", shared}}
			for _, p := range passes {
				pass, axes := p.pass, p.axes
				cells, fp, err := s.planFingerprint(opts, axes)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				if fp != want {
					t.Fatalf("%s: planFingerprint %s != Fingerprint %s", pass, fp, want)
				}
				if len(cells) != wantCells {
					t.Fatalf("%s: %d cells, want %d", pass, len(cells), wantCells)
				}
				if ref == nil {
					ref = cells
					continue
				}
				for i := range cells {
					got, exp := cells[i], ref[i]
					if got.Key != exp.Key || got.Scheme != exp.Scheme ||
						got.Profile != exp.Profile || got.Cohort != exp.Cohort ||
						got.NumJobs != exp.NumJobs || got.Shards != exp.Shards {
						t.Fatalf("%s: cell %d diverged: %+v != %+v", pass, i, got, exp)
					}
				}
			}
		})
	}
}

// TestAxisCacheTypeTaggedKeys pins the collision property of the spec-key
// encoding: parameter values that differ only in dynamic type (int 4 vs
// string "4") must produce distinct keys, so a spelling that fails coercion
// can never hit a cached success.
func TestAxisCacheTypeTaggedKeys(t *testing.T) {
	a := cohortKey(fleet.CohortSpec{Name: "study-3g",
		Params: map[string]any{"users": 4}}, 1, time.Second)
	b := cohortKey(fleet.CohortSpec{Name: "study-3g",
		Params: map[string]any{"users": "4"}}, 1, time.Second)
	if a == b {
		t.Fatalf("int and string params collide: %q", a)
	}
}
