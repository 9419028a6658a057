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

// mustFingerprint is Fingerprint for specs the test expects to resolve.
func (s Spec) mustFingerprint(t *testing.T) string {
	t.Helper()
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

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
	want := sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail"}}).mustFingerprint(t)
	equivalents := []fleet.SchemeSpec{
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "4.5s"}}},
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "4500ms"}}},
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": 4500 * time.Millisecond}}},
		{Policy: policy.Spec{Name: "fixedtail"}, Active: &policy.Spec{Name: "none"}},
		{Label: "fixedtail", Policy: policy.Spec{Name: "fixedtail"}},
	}
	for i, ss := range equivalents {
		if got := sweepSpec(ss).mustFingerprint(t); got != want {
			t.Errorf("equivalent scheme %d changed the fingerprint", i)
		}
	}

	// Param-map construction order cannot matter: rebuild the same
	// multi-param map across trials (Go randomizes map iteration, so many
	// trials exercise many orders).
	multi := func() map[string]any {
		return map[string]any{"window": 200, "gridsteps": 50, "minsample": 20}
	}
	ref := sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle", Params: multi()}}).mustFingerprint(t)
	for trial := 0; trial < 20; trial++ {
		if sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle", Params: multi()}}).mustFingerprint(t) != ref {
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
	seen := map[string]string{mk(base).mustFingerprint(t): "base"}
	for k := range base {
		mutated := map[string]any{}
		for k2, v2 := range base {
			mutated[k2] = v2
		}
		mutated[k] = mutated[k].(int) + 1
		fp := mk(mutated).mustFingerprint(t)
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
		fp := s.mustFingerprint(t)
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
			if sweepSpec(alias).mustFingerprint(t) != sweepSpec(canon).mustFingerprint(t) {
				t.Errorf("scheme alias %s (label %q) does not fingerprint like its canonical spec",
					c.alias.Policy.Name, label)
			}
		}
	}
	makeidle := fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle"}}
	for _, c := range []struct{ display, canon string }{
		{power.TMobile3G.Name, "tmobile-3g"}, {power.ATTHSPAPlus.Name, "att-hspa+"},
		{power.Verizon3G.Name, "verizon-3g"}, {power.VerizonLTE.Name, "verizon-lte"},
	} {
		for _, label := range []string{"", c.display} {
			alias, canon := sweepSpec(makeidle), sweepSpec(makeidle)
			alias.Profiles = []power.ProfileSpec{{Label: label, Name: c.display}}
			canon.Profiles = []power.ProfileSpec{{Label: label, Name: c.canon}}
			if alias.mustFingerprint(t) != canon.mustFingerprint(t) {
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
	if explicit.mustFingerprint(t) != speced.mustFingerprint(t) {
		t.Fatal("a fix scheme ignores the job burst gap")
	}
	rs, err := fleet.ResolveScheme(registry(), speced.withDefaults().Schemes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs.Canonical, "fix(burstgap=2s)") {
		t.Fatalf("canonical %q does not carry the injected burst gap", rs.Canonical)
	}
	pinned := speced
	pinned.Schemes = []fleet.SchemeSpec{{Label: "makeidle+fix",
		Policy: policy.Spec{Name: "makeidle"},
		Active: &policy.Spec{Name: "fix", Params: map[string]any{"burstgap": "500ms"}}}}
	if pinned.mustFingerprint(t) == speced.mustFingerprint(t) {
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
	want := base.mustFingerprint(t)
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
		if got := s.mustFingerprint(t); got != want {
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
	ref := mk().mustFingerprint(t)
	for trial := 0; trial < 20; trial++ {
		if mk().mustFingerprint(t) != ref {
			t.Fatal("fingerprint depends on profile param map ordering")
		}
	}
	// A display-name profile and its canonical name agree under one label.
	display, canonical := base, base
	display.Profiles = []power.ProfileSpec{{Label: "Verizon LTE", Name: "Verizon LTE"}}
	canonical.Profiles = []power.ProfileSpec{{Label: "Verizon LTE", Name: "verizon-lte"}}
	if display.mustFingerprint(t) != canonical.mustFingerprint(t) {
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
	seen := map[string]string{base.mustFingerprint(t): "base"}
	check := func(name string, s Spec) {
		t.Helper()
		fp := s.mustFingerprint(t)
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
	if _, err := withProfiles(power.ProfileSpec{Name: "AT&T 3G"}).Fingerprint(); err == nil {
		t.Error("unknown profile has a fingerprint")
	}
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
	_, _, err := s.planFingerprint(fleet.Options{})
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

// TestFingerprintGolden pins the v4 job fingerprint, the first cell's key
// and its axis labels for three specs, so the bytes every stored cell is
// addressed by cannot move unnoticed: the benchmark's tail-sweep grid
// (8 schemes × 4 carriers × 2 study mixes), legacy alias spellings, and a
// labeled, parameterized profile with a "fix" active half that inherits
// the job burst gap. Any change here orphans every stored result.
func TestFingerprintGolden(t *testing.T) {
	var tail []fleet.SchemeSpec
	for _, w := range []string{"1s", "2s", "3s", "4.5s", "6s", "8s"} {
		tail = append(tail, fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": w}}})
	}
	tail = append(tail, fleet.SchemeSpec{Policy: policy.Spec{Name: "oracle"}},
		fleet.SchemeSpec{Policy: policy.Spec{Name: "95iat"}})
	cases := []struct {
		name                    string
		spec                    Spec
		cells                   int
		fp, key                 string
		scheme, profile, cohort string
	}{
		{name: "tail-sweep-grid",
			spec: Spec{Seed: 42, Schemes: tail,
				Profiles: []power.ProfileSpec{{Name: "verizon-3g"}, {Name: "verizon-lte"}, {Name: "tmobile-3g"}, {Name: "att-hspa+"}},
				Cohorts: []fleet.CohortSpec{
					{Name: "study-3g", Params: map[string]any{"users": 14, "duration": "24h"}},
					{Name: "study-lte", Params: map[string]any{"users": 14, "duration": "24h"}},
				}},
			cells:  64,
			fp:     "9bf3f0f21778c1fa277e53dc1cfa08c2c214ef1e9c9a59d6355eed5330390865",
			key:    "6941687fd7a8b40507c9afe6427cbe5879d2194918ae1e643fb5a8b12c132563",
			scheme: "fixedtail(wait=1s)", profile: "verizon-3g", cohort: "study-3g(users=14,duration=24h0m0s)"},
		{name: "alias",
			spec: Spec{Seed: 9,
				Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "4.5s"}}},
				Profiles: []power.ProfileSpec{{Name: "Verizon 3G"}},
				Cohorts:  []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 2}}}},
			cells:  1,
			fp:     "f4673423243854b6ccd6d1af2589da75ea46f88d12e57f4cc3c5e5ce5fc642be",
			key:    "66d1eac01a71376362a568095055752a972a702183f644c573a6983f8d07bc0d",
			scheme: "fixedtail", profile: "verizon-3g", cohort: "study-3g(users=2)"},
		{name: "labeled-fix",
			spec: Spec{Seed: 5, BurstGap: Duration(2 * time.Second),
				Schemes: []fleet.SchemeSpec{{Label: "idle+fix", Policy: policy.Spec{Name: "makeidle"},
					Active: &policy.Spec{Name: "fix"}}},
				Profiles: []power.ProfileSpec{{Label: "lte-fast", Name: "verizon-lte", Params: map[string]any{"t1": "5s"}}},
				Cohorts:  []fleet.CohortSpec{{Name: "study-lte", Params: map[string]any{"users": 3, "duration": "30m"}}}},
			cells:  1,
			fp:     "4eaf796ab77df4f04f0fd17e364805aecd27cce7605363819ac700ec251ace5c",
			key:    "b64da08921a3851feab446342246bf60f8da525212ffc2120489db3ce921779b",
			scheme: "idle+fix", profile: "lte-fast", cohort: "study-lte(users=3,duration=30m0s)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if fp := c.spec.mustFingerprint(t); fp != c.fp {
				t.Errorf("fingerprint %s, want %s", fp, c.fp)
			}
			s := c.spec.withDefaults()
			cells, fp, err := s.planFingerprint(fleet.Options{Shards: s.Shards})
			if err != nil {
				t.Fatal(err)
			}
			if fp != c.fp {
				t.Errorf("planned fingerprint %s, want %s", fp, c.fp)
			}
			if len(cells) != c.cells {
				t.Fatalf("%d cells, want %d", len(cells), c.cells)
			}
			got := cells[0]
			if got.Key != c.key {
				t.Errorf("cell key %s, want %s", got.Key, c.key)
			}
			if got.Scheme != c.scheme || got.Profile != c.profile || got.Cohort != c.cohort {
				t.Errorf("cell labels %q/%q/%q, want %q/%q/%q",
					got.Scheme, got.Profile, got.Cohort, c.scheme, c.profile, c.cohort)
			}
		})
	}

	// A spec Submit would reject has no fingerprint.
	unknown := sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "warpdrive"}})
	if fp, err := unknown.Fingerprint(); err == nil {
		t.Errorf("unknown scheme fingerprinted as %s", fp)
	}
	// 64 schemes × 9 profiles = 576 cells: each axis within its own
	// limit, the product over MaxCells.
	wide := sweepSpec()
	for i := 0; i < MaxSchemes; i++ {
		wide.Schemes = append(wide.Schemes, fleet.SchemeSpec{
			Label: fmt.Sprintf("s%d", i), Policy: policy.Spec{Name: "makeidle"}})
	}
	for i := 0; len(wide.Profiles) < 9; i++ {
		wide.Profiles = append(wide.Profiles, power.ProfileSpec{Label: fmt.Sprintf("p%d", i), Name: "verizon-3g"})
	}
	if fp, err := wide.Fingerprint(); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("grid over MaxCells: fingerprint %q, error %v", fp, err)
	}
}
