package jobs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
)

// sweepSpec is a one-profile, one-cohort job over the given schemes.
func sweepSpec(schemes ...fleet.SchemeSpec) Spec {
	return Spec{Seed: 3, Schemes: schemes,
		Profiles: []power.ProfileSpec{{Name: "verizon-3g"}},
		Cohorts:  []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 5, "duration": "30m"}}},
	}
}

// TestFingerprintStableAcrossParamEncodings: the fingerprint hashes
// canonical scheme encodings, so every way of writing the same sweep —
// alias vs canonical name, omitted vs explicit defaults, string vs
// numeric parameter forms, any param-map construction order — produces
// one fingerprint.
func TestFingerprintStableAcrossParamEncodings(t *testing.T) {
	want := sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail"}}).Fingerprint()
	equivalents := []fleet.SchemeSpec{
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "4.5s"}}},
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "4500ms"}}},
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": 4500 * time.Millisecond}}},
		{Policy: policy.Spec{Name: "fixedtail"}, Active: &policy.Spec{Name: "none"}},
		{Label: "fixedtail", Policy: policy.Spec{Name: "fixedtail"}},
	}
	for i, ss := range equivalents {
		if got := sweepSpec(ss).Fingerprint(); got != want {
			t.Errorf("equivalent scheme %d changed the fingerprint", i)
		}
	}

	// Param-map construction order cannot matter: rebuild the same
	// multi-param map across trials (Go randomizes map iteration, so many
	// trials exercise many orders).
	multi := func() map[string]any {
		return map[string]any{"window": 200, "gridsteps": 50, "minsample": 20}
	}
	ref := sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle", Params: multi()}}).Fingerprint()
	for trial := 0; trial < 20; trial++ {
		if sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle", Params: multi()}}).Fingerprint() != ref {
			t.Fatal("fingerprint depends on param map ordering")
		}
	}
}

// TestFingerprintMovesWithAnyParamChange: changing any single parameter
// value, the scheme label, the scheme list, or its order changes the
// fingerprint.
func TestFingerprintMovesWithAnyParamChange(t *testing.T) {
	base := map[string]any{"window": 200, "gridsteps": 50, "minsample": 20}
	mk := func(params map[string]any) Spec {
		return sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle", Params: params}})
	}
	seen := map[string]string{mk(base).Fingerprint(): "base"}
	for k := range base {
		mutated := map[string]any{}
		for k2, v2 := range base {
			mutated[k2] = v2
		}
		mutated[k] = mutated[k].(int) + 1
		fp := mk(mutated).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("mutating %q collided with %s", k, prev)
		}
		seen[fp] = k
	}

	a := fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}}
	b := fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "8s"}}}
	distinct := []Spec{
		sweepSpec(a),
		sweepSpec(b),
		sweepSpec(a, b),
		sweepSpec(b, a), // scheme order is part of the computation's identity
		sweepSpec(fleet.SchemeSpec{Label: "renamed", Policy: a.Policy}),
		sweepSpec(fleet.SchemeSpec{Policy: a.Policy, Active: &policy.Spec{Name: "learn"}}),
		sweepSpec(fleet.SchemeSpec{Policy: a.Policy,
			Active: &policy.Spec{Name: "learn", Params: map[string]any{"gamma": 0.01}}}),
	}
	for i, s := range distinct {
		fp := s.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("spec %d collided with %s", i, prev)
		}
		seen[fp] = "distinct"
	}
}

// TestLegacyNameAliasFingerprints: the registries' alias spellings (the
// pre-registry flat names such as "95iat" and "Verizon 3G") fingerprint
// identically to their canonical specs, labeled or not, on the scheme and
// profile axes — aliases are the one place alternate spellings live.
func TestLegacyNameAliasFingerprints(t *testing.T) {
	schemes := []struct{ alias, canon fleet.SchemeSpec }{
		{fleet.SchemeSpec{Policy: policy.Spec{Name: "4.5s"}},
			fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "4.5s"}}}},
		{fleet.SchemeSpec{Policy: policy.Spec{Name: "95iat"}},
			fleet.SchemeSpec{Policy: policy.Spec{Name: "pctiat", Params: map[string]any{"q": 0.95}}}},
		{fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: "fix"}},
			fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle"},
				Active: &policy.Spec{Name: "fix", Params: map[string]any{"burstgap": "1s"}}}},
	}
	for _, c := range schemes {
		for _, label := range []string{"", "legacy"} {
			alias, canon := c.alias, c.canon
			alias.Label, canon.Label = label, label
			if sweepSpec(alias).Fingerprint() != sweepSpec(canon).Fingerprint() {
				t.Errorf("scheme alias %s (label %q) does not fingerprint like its canonical spec",
					c.alias.Policy.Name, label)
			}
		}
	}
	for _, c := range []struct{ display, canon string }{
		{power.TMobile3G.Name, "tmobile-3g"}, {power.ATTHSPAPlus.Name, "att-hspa+"},
		{power.Verizon3G.Name, "verizon-3g"}, {power.VerizonLTE.Name, "verizon-lte"},
	} {
		for _, label := range []string{"", c.display} {
			alias, canon := sweepSpec(), sweepSpec()
			alias.Profiles = []power.ProfileSpec{{Label: label, Name: c.display}}
			canon.Profiles = []power.ProfileSpec{{Label: label, Name: c.canon}}
			if alias.Fingerprint() != canon.Fingerprint() {
				t.Errorf("profile alias %q (label %q) does not fingerprint like %q", c.display, label, c.canon)
			}
		}
	}
}

// TestBurstGapSeedsFixScheme: the job-level burst gap reaches a "fix"
// active spec that does not pin its own — it fingerprints (and therefore
// computes) identically to the spec that pins the same gap — while an
// explicit burstgap param wins.
func TestBurstGapSeedsFixScheme(t *testing.T) {
	speced := sweepSpec(fleet.SchemeSpec{Label: "makeidle+fix",
		Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: "fix"}})
	speced.BurstGap = Duration(2 * time.Second)
	explicit := speced
	explicit.Schemes = []fleet.SchemeSpec{{Label: "makeidle+fix",
		Policy: policy.Spec{Name: "makeidle"},
		Active: &policy.Spec{Name: "fix", Params: map[string]any{"burstgap": "2s"}}}}
	if explicit.Fingerprint() != speced.Fingerprint() {
		t.Fatal("a fix scheme ignores the job burst gap")
	}
	canon, err := speced.withDefaults().Schemes[0].Canonical(registry())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(canon, "fix(burstgap=2s)") {
		t.Fatalf("canonical %q does not carry the injected burst gap", canon)
	}
	pinned := speced
	pinned.Schemes = []fleet.SchemeSpec{{Label: "makeidle+fix",
		Policy: policy.Spec{Name: "makeidle"},
		Active: &policy.Spec{Name: "fix", Params: map[string]any{"burstgap": "500ms"}}}}
	if pinned.Fingerprint() == speced.Fingerprint() {
		t.Fatal("explicit burstgap param did not override the job burst gap")
	}
	if pinned.Schemes[0].Active.Params["burstgap"] != "500ms" {
		t.Fatal("normalization mutated the caller's scheme spec")
	}
}

// TestFingerprintV4StableAcrossAxisSpellings: the v4 fingerprint hashes
// canonical encodings on all three axes, so every way of writing the same
// grid — display-name vs canonical profile names, omitted vs explicit
// defaults on any axis, any param-map construction order — produces one
// fingerprint.
func TestFingerprintV4StableAcrossAxisSpellings(t *testing.T) {
	base := Spec{Seed: 3, Shards: 8,
		Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "makeidle"}}},
		Profiles: []power.ProfileSpec{{Name: "verizon-lte"}},
		Cohorts:  []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 5, "duration": "30m"}}},
	}
	want := base.Fingerprint()
	equivalents := []Spec{
		// Explicit profile defaults.
		func() Spec {
			s := base
			s.Profiles = []power.ProfileSpec{{Name: "verizon-lte", Params: map[string]any{"t1": "10.2s"}}}
			return s
		}(),
		// Cohort value spellings and explicit defaults.
		func() Spec {
			s := base
			s.Cohorts = []fleet.CohortSpec{{Name: "study-3g",
				Params: map[string]any{"users": "5", "duration": "30m0s", "diurnal": true}}}
			return s
		}(),
	}
	for i, s := range equivalents {
		if got := s.Fingerprint(); got != want {
			t.Errorf("equivalent grid %d changed the fingerprint", i)
		}
	}
	// Param-map construction order cannot matter on the new axes either.
	mk := func() Spec {
		s := base
		s.Profiles = []power.ProfileSpec{{Name: "verizon-lte",
			Params: map[string]any{"t1": "9s", "dormancy": 0.4, "uplink": 2.0}}}
		return s
	}
	ref := mk().Fingerprint()
	for trial := 0; trial < 20; trial++ {
		if mk().Fingerprint() != ref {
			t.Fatal("fingerprint depends on profile param map ordering")
		}
	}
	// A display-name profile and its canonical name agree under one label.
	display, canonical := base, base
	display.Profiles = []power.ProfileSpec{{Label: "Verizon LTE", Name: "Verizon LTE"}}
	canonical.Profiles = []power.ProfileSpec{{Label: "Verizon LTE", Name: "verizon-lte"}}
	if display.Fingerprint() != canonical.Fingerprint() {
		t.Fatal("display-name profile does not fingerprint like its canonical name")
	}
}

// TestFingerprintV4MovesWithAnyAxisChange: changing any single profile or
// cohort knob, an axis label, an axis list, or its order changes the
// fingerprint.
func TestFingerprintV4MovesWithAnyAxisChange(t *testing.T) {
	base := Spec{Seed: 3, Shards: 8,
		Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "makeidle"}}},
		Profiles: []power.ProfileSpec{{Name: "verizon-lte"}},
		Cohorts:  []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 5}}},
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	check := func(name string, s Spec) {
		t.Helper()
		fp := s.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collided with %s", name, prev)
		}
		seen[fp] = name
	}
	withProfiles := func(ps ...power.ProfileSpec) Spec { s := base; s.Profiles = ps; return s }
	withCohorts := func(cs ...fleet.CohortSpec) Spec { s := base; s.Cohorts = cs; return s }

	// Every profile knob moves the key.
	for _, knob := range []map[string]any{
		{"t1": "5s"}, {"t1power": 1200.0}, {"send": 3000.0}, {"recv": 1800.0},
		{"promodelay": "1s"}, {"promopower": 1000.0}, {"radiooff": 2.0},
		{"dormancy": 0.4}, {"uplink": 4.0}, {"downlink": 10.0},
	} {
		check(fmt.Sprintf("profile knob %v", knob),
			withProfiles(power.ProfileSpec{Name: "verizon-lte", Params: knob}))
	}
	// Every cohort knob moves the key.
	for _, knob := range []map[string]any{
		{"users": 6}, {"users": 5, "duration": "1h"}, {"users": 5, "diurnal": false},
		{"users": 5, "seedstride": 7},
	} {
		check(fmt.Sprintf("cohort knob %v", knob),
			withCohorts(fleet.CohortSpec{Name: "study-3g", Params: knob}))
	}
	// Different families, labels, list sizes and orders are all distinct.
	v3g := power.ProfileSpec{Name: "verizon-3g"}
	vlte := power.ProfileSpec{Name: "verizon-lte"}
	check("different family", withCohorts(fleet.CohortSpec{Name: "study-lte", Params: map[string]any{"users": 5}}))
	check("relabeled profile", withProfiles(power.ProfileSpec{Label: "renamed", Name: "verizon-lte"}))
	check("relabeled cohort", withCohorts(fleet.CohortSpec{Label: "renamed", Name: "study-3g", Params: map[string]any{"users": 5}}))
	check("two profiles", withProfiles(vlte, v3g))
	check("two profiles, other order", withProfiles(v3g, vlte))
	check("unknown profile", withProfiles(power.ProfileSpec{Name: "AT&T 3G"}))
}

// TestSpecValidateAxes: grid-specific admission rules on the three axes,
// checked on the Submit path's planFingerprint.
func TestSpecValidateAxes(t *testing.T) {
	good := Spec{Seed: 1,
		Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "makeidle"}}},
		Profiles: []power.ProfileSpec{{Name: "verizon-3g"}, {Name: "verizon-lte", Params: map[string]any{"t1": "5s"}}},
		Cohorts: []fleet.CohortSpec{
			{Name: "study-3g", Params: map[string]any{"users": 2, "duration": "10m"}},
			{Name: "mix", Params: map[string]any{"users": 2, "duration": "10m"}},
		},
	}.withDefaults()
	if err := validate(good); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	mutate := func(f func(*Spec)) Spec {
		s := good
		f(&s)
		return s
	}
	// Sub-minute cohorts are valid replays (the duration floor is 1 ns).
	short := mutate(func(s *Spec) {
		s.Cohorts = []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 2, "duration": "30s"}}}
	})
	if err := validate(short); err != nil {
		t.Fatalf("sub-minute cohort duration rejected: %v", err)
	}
	// Each empty axis is rejected with an error naming it.
	for axis, s := range map[string]Spec{
		"schemes":  mutate(func(s *Spec) { s.Schemes = nil }),
		"profiles": mutate(func(s *Spec) { s.Profiles = nil }),
		"cohorts":  mutate(func(s *Spec) { s.Cohorts = []fleet.CohortSpec{} }),
	} {
		if err := validate(s); err == nil || !strings.Contains(err.Error(), axis) {
			t.Errorf("empty %s axis: got %v, want an error naming it", axis, err)
		}
	}
	bad := map[string]Spec{
		"unknown profile": mutate(func(s *Spec) {
			s.Profiles = []power.ProfileSpec{{Name: "warp-radio"}}
		}),
		"out-of-range profile knob": mutate(func(s *Spec) {
			s.Profiles = []power.ProfileSpec{{Name: "verizon-3g", Params: map[string]any{"dormancy": 2.0}}}
		}),
		"duplicate profile labels": mutate(func(s *Spec) {
			s.Profiles = []power.ProfileSpec{{Name: "verizon-3g"}, {Name: "Verizon 3G", Label: "verizon-3g"}}
		}),
		"reserved profile label": mutate(func(s *Spec) {
			s.Profiles = []power.ProfileSpec{{Label: "a|b", Name: "verizon-3g"}}
		}),
		"unknown cohort": mutate(func(s *Spec) {
			s.Cohorts = []fleet.CohortSpec{{Name: "commuters"}}
		}),
		"cohort over the users cap": mutate(func(s *Spec) {
			s.Cohorts = []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 1_000_001}}}
		}),
		"cohort over the duration cap": mutate(func(s *Spec) {
			s.Cohorts = []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"duration": "744h"}}}
		}),
		"degenerate mix cohort": mutate(func(s *Spec) {
			s.Cohorts = []fleet.CohortSpec{{Name: "mix", Params: map[string]any{"im": 0, "email": 0, "news": 0}}}
		}),
		"too many profiles": mutate(func(s *Spec) {
			for i := 0; i <= MaxProfiles; i++ {
				s.Profiles = append(s.Profiles, power.ProfileSpec{
					Label: fmt.Sprintf("p%d", i), Name: "verizon-3g"})
			}
		}),
		// 40 schemes × 8 profiles × 2 cohorts = 640 cells: every axis within
		// its own limit, the product over MaxCells.
		"too many cells": mutate(func(s *Spec) {
			for i := 0; len(s.Profiles) < 8; i++ {
				s.Profiles = append(s.Profiles, power.ProfileSpec{
					Label: fmt.Sprintf("p%d", i), Name: "verizon-3g"})
			}
			for i := 0; len(s.Schemes) < 40; i++ {
				s.Schemes = append(s.Schemes, fleet.SchemeSpec{
					Label: fmt.Sprintf("s%d", i), Policy: policy.Spec{Name: "makeidle"}})
			}
		}),
	}
	for name, s := range bad {
		if err := validate(s); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// validate runs the Submit path's admission checks on a normalized spec.
func validate(s Spec) error {
	_, _, err := s.planFingerprint(fleet.Options{}, nil)
	return err
}

// TestSpecValidateSchemes: sweep-specific admission rules.
func TestSpecValidateSchemes(t *testing.T) {
	good := sweepSpec(
		fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}},
		fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "8s"}}},
	).withDefaults()
	if err := validate(good); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	bad := []Spec{
		sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "warpdrive"}}),
		sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "20m"}}}),
		sweepSpec( // duplicate labels: both resolve to "fixedtail"
			fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail"}},
			fleet.SchemeSpec{Policy: policy.Spec{Name: "4.5s"}}),
		sweepSpec(fleet.SchemeSpec{Label: "a|b", Policy: policy.Spec{Name: "makeidle"}}),
		func() Spec {
			s := sweepSpec()
			for i := 0; i <= MaxSchemes; i++ {
				s.Schemes = append(s.Schemes, fleet.SchemeSpec{
					Label:  time.Duration(i).String(),
					Policy: policy.Spec{Name: "makeidle"},
				})
			}
			return s
		}(),
	}
	for i, s := range bad {
		if err := validate(s.withDefaults()); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
