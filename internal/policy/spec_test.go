package policy

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// canonical and label read a spec's encodings off its Resolution.
func canonical(reg *Registry, role Role, sp Spec) (string, error) {
	res, err := reg.Resolution(role, sp)
	return res.Canonical, err
}

func label(reg *Registry, role Role, sp Spec) (string, error) {
	res, err := reg.Resolution(role, sp)
	return res.Label, err
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"makeidle", Spec{Name: "makeidle"}},
		{"  fixedtail ( wait = 2s ) ", Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}},
		{"learn(maxdelay=5s,gamma=0.01)", Spec{Name: "learn",
			Params: map[string]any{"maxdelay": "5s", "gamma": "0.01"}}},
		{"statusquo()", Spec{Name: "statusquo"}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got.Name != c.want.Name || len(got.Params) != len(c.want.Params) {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		for k, v := range c.want.Params {
			if got.Params[k] != v {
				t.Fatalf("ParseSpec(%q) param %s = %v, want %v", c.in, k, got.Params[k], v)
			}
		}
	}
	for _, bad := range []string{"", "fixedtail(wait=2s", "(wait=2s)", "fixedtail(wait)", "fixedtail(wait=2s,wait=3s)", "fixedtail(=2s)"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestCanonicalStability: the byte-stable encoding is invariant under
// every way of writing the same configuration — alias vs canonical name,
// omitted vs explicit defaults, string vs numeric value forms, and any
// param-map construction order — and moves whenever a value changes.
func TestCanonicalStability(t *testing.T) {
	reg := Default()
	equal := []Spec{
		{Name: "fixedtail"},
		{Name: "fixedtail", Params: map[string]any{"wait": "4.5s"}},
		{Name: "fixedtail", Params: map[string]any{"wait": "4500ms"}},
		{Name: "fixedtail", Params: map[string]any{"wait": 4500 * time.Millisecond}},
		{Name: "fixedtail", Params: map[string]any{"wait": float64(4500000000)}},
		{Name: "4.5s"},
		{Name: "4.5s", Params: map[string]any{"wait": "4.5s"}},
	}
	want, err := canonical(reg, RoleDemote, equal[0])
	if err != nil {
		t.Fatal(err)
	}
	if want != "fixedtail(wait=4.5s)" {
		t.Fatalf("canonical %q", want)
	}
	for i, s := range equal {
		got, err := canonical(reg, RoleDemote, s)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("spec %d canonical %q, want %q", i, got, want)
		}
	}
	changed, err := canonical(reg, RoleDemote, Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}})
	if err != nil {
		t.Fatal(err)
	}
	if changed == want {
		t.Fatal("changing a parameter value did not change the canonical encoding")
	}

	// Multi-parameter schema: construction order of the map cannot matter
	// (encoding follows schema declaration order), and every single-value
	// change moves the encoding.
	base := map[string]any{"window": 200, "gridsteps": 50, "minsample": 20}
	canon := func(p map[string]any) string {
		c, err := canonical(reg, RoleDemote, Spec{Name: "makeidle", Params: p})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := canon(base)
	for trial := 0; trial < 20; trial++ { // map iteration order is randomized per trial
		rebuilt := map[string]any{}
		for k, v := range base {
			rebuilt[k] = v
		}
		if canon(rebuilt) != ref {
			t.Fatal("canonical encoding depends on param map ordering")
		}
	}
	seen := map[string]bool{ref: true}
	for k := range base {
		mutated := map[string]any{}
		for k2, v2 := range base {
			mutated[k2] = v2
		}
		mutated[k] = mutated[k].(int) + 1
		c := canon(mutated)
		if seen[c] {
			t.Fatalf("mutating %q did not change the canonical encoding", k)
		}
		seen[c] = true
	}
}

func TestLabelShowsOnlyNonDefaults(t *testing.T) {
	reg := Default()
	cases := []struct {
		role Role
		spec Spec
		want string
	}{
		{RoleDemote, Spec{Name: "fixedtail"}, "fixedtail"},
		{RoleDemote, Spec{Name: "4.5s"}, "fixedtail"},
		{RoleDemote, Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}, "fixedtail(wait=2s)"},
		{RoleDemote, Spec{Name: "makeidle", Params: map[string]any{"window": 250}}, "makeidle(window=250)"},
		{RoleActive, Spec{Name: "learn", Params: map[string]any{"maxdelay": "5s", "gamma": 0.008}}, "learn(maxdelay=5s)"},
	}
	for _, c := range cases {
		got, err := label(reg, c.role, c.spec)
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestResolveRejects(t *testing.T) {
	reg := Default()
	if _, _, err := reg.Resolve(RoleDemote, Spec{Name: "extra-fast"}); err == nil ||
		!strings.Contains(err.Error(), "statusquo") {
		t.Fatalf("unknown name error should list valid names, got %v", err)
	}
	if _, _, err := reg.Resolve(RoleDemote, Spec{Name: "fixedtail", Params: map[string]any{"delay": "2s"}}); err == nil ||
		!strings.Contains(err.Error(), "wait") {
		t.Fatalf("unknown param error should list params, got %v", err)
	}
	if _, _, err := reg.Resolve(RoleDemote, Spec{Name: "fixedtail", Params: map[string]any{"wait": "20m"}}); err == nil {
		t.Fatal("out-of-bounds value accepted")
	}
	if _, _, err := reg.Resolve(RoleDemote, Spec{Name: "fixedtail", Params: map[string]any{"wait": "soonish"}}); err == nil {
		t.Fatal("unparseable value accepted")
	}
	if _, _, err := reg.Resolve(RoleDemote, Spec{Name: "makeidle", Params: map[string]any{"window": 2.5}}); err == nil {
		t.Fatal("fractional int accepted")
	}
	// NaN compares false against every bound, so it must die in coercion —
	// otherwise pctiat(q=NaN) would panic inside a fleet worker.
	for _, v := range []any{"NaN", math.NaN(), "+Inf", math.Inf(-1)} {
		if _, _, err := reg.Resolve(RoleDemote, Spec{Name: "pctiat", Params: map[string]any{"q": v}}); err == nil {
			t.Fatalf("non-finite float %v accepted", v)
		}
	}
}

// TestLegacyAliases maps every pre-registry flat name to its spec and
// checks both the expansion and the policy it builds.
func TestLegacyAliases(t *testing.T) {
	reg := Default()
	tr := workload.Generate(workload.Email(), 1, time.Hour)
	prof := power.Verizon3G

	demotes := map[string]string{
		"statusquo": "statusquo",
		"4.5s":      "fixedtail(wait=4.5s)",
		"95iat":     "pctiat(q=0.95)",
		"oracle":    "oracle(threshold=0s)",
		"makeidle":  "makeidle(window=100,gridsteps=40,minsample=10)",
	}
	for name, want := range demotes {
		got, err := canonical(reg, RoleDemote, Spec{Name: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s canonical %q, want %q", name, got, want)
		}
		p, err := reg.BuildDemote(Spec{Name: name}, tr, prof)
		if err != nil || p == nil {
			t.Fatalf("%s: build: %v", name, err)
		}
	}
	actives := map[string]string{
		"none":  "none",
		"learn": "learn(maxdelay=10s,gamma=0.008)",
		"fix":   "fix(burstgap=1s)",
	}
	for name, want := range actives {
		got, err := canonical(reg, RoleActive, Spec{Name: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s canonical %q, want %q", name, got, want)
		}
		a, err := reg.BuildActive(Spec{Name: name}, tr, prof)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if (a == nil) != (name == "none") {
			t.Fatalf("%s built %v", name, a)
		}
	}
}

// TestBuiltPoliciesHonorParams: parameter overrides reach the constructed
// policies.
func TestBuiltPoliciesHonorParams(t *testing.T) {
	reg := Default()
	prof := power.Verizon3G
	d, err := reg.BuildDemote(Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}, nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	if ft := d.(*FixedTail); ft.Wait != 2*time.Second {
		t.Fatalf("wait %v", ft.Wait)
	}
	tr := trace.Trace{{T: 0}, {T: time.Second}, {T: 3 * time.Second}}
	d, err = reg.BuildDemote(Spec{Name: "pctiat", Params: map[string]any{"q": 0.5}}, tr, prof)
	if err != nil {
		t.Fatal(err)
	}
	if p := d.(*PercentileIAT); p.Name() != "50% IAT" {
		t.Fatalf("pctiat label %q", p.Name())
	}
	a, err := reg.BuildActive(Spec{Name: "learn", Params: map[string]any{"maxdelay": "3s"}}, nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	if ld := a.(*LearnedDelay); ld.MaxDelay() != 3*time.Second {
		t.Fatalf("maxdelay %v", ld.MaxDelay())
	}
	d, err = reg.BuildDemote(Spec{Name: "oracle", Params: map[string]any{"threshold": "7s"}}, nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	if o := d.(*Oracle); o.Threshold != 7*time.Second {
		t.Fatalf("threshold %v", o.Threshold)
	}
}

// TestCapabilities: the registry's capability bits replace the old
// hand-maintained TraceFitted switches and match the built policies.
func TestCapabilities(t *testing.T) {
	reg := Default()
	for name, fitted := range map[string]bool{
		"statusquo": false, "fixedtail": false, "pctiat": true, "oracle": false, "makeidle": false,
	} {
		s, ok := reg.Lookup(RoleDemote, name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if s.TraceFitted != fitted {
			t.Errorf("%s TraceFitted = %v, want %v", name, s.TraceFitted, fitted)
		}
	}
	for name, fitted := range map[string]bool{"none": false, "learn": false, "fix": true} {
		s, ok := reg.Lookup(RoleActive, name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if s.TraceFitted != fitted {
			t.Errorf("%s TraceFitted = %v, want %v", name, s.TraceFitted, fitted)
		}
	}
	oracle, _ := reg.Lookup(RoleDemote, "oracle")
	if !oracle.GapLookahead {
		t.Error("oracle not marked gap-lookahead")
	}
	built, err := reg.BuildDemote(Spec{Name: "oracle"}, nil, power.Verizon3G)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := built.(GapLookahead); !ok {
		t.Error("built oracle does not implement GapLookahead")
	}
}

// TestFitIgnoresProfileHonest holds the FitIgnoresProfile capability to
// the builders: every trace-fitted schema declaring it must build
// DeepEqual policies from one trace under all four carrier profiles (the
// fleet shares that one fit across profiles), and fix, which leaves it
// unset, must build different ones — the bit is not vacuous.
func TestFitIgnoresProfileHonest(t *testing.T) {
	reg := Default()
	tr := workload.Generate(workload.Email(), 1, time.Hour)
	profiles := []power.Profile{power.TMobile3G, power.ATTHSPAPlus, power.Verizon3G, power.VerizonLTE}
	build := func(s *Schema, prof power.Profile) any {
		t.Helper()
		_, params, err := reg.Resolve(s.Role, Spec{Name: s.Name})
		if err != nil {
			t.Fatal(err)
		}
		var p any
		if s.Role == RoleDemote {
			p, err = s.NewDemote(params, tr, prof)
		} else {
			p, err = s.NewActive(params, tr, prof)
		}
		if err != nil {
			t.Fatalf("%s under %s: %v", s.Name, prof.Name, err)
		}
		return p
	}
	varies := func(s *Schema) bool {
		first := build(s, profiles[0])
		for _, prof := range profiles[1:] {
			if !reflect.DeepEqual(first, build(s, prof)) {
				return true
			}
		}
		return false
	}
	declared := 0
	for _, role := range []Role{RoleDemote, RoleActive} {
		for _, s := range reg.Schemas(role) {
			if s.FitIgnoresProfile && !s.TraceFitted {
				t.Errorf("%s declares FitIgnoresProfile but is not trace-fitted", s.Name)
			}
			if !s.TraceFitted || !s.FitIgnoresProfile {
				continue
			}
			declared++
			if varies(s) {
				t.Errorf("%s declares FitIgnoresProfile but builds different policies across profiles", s.Name)
			}
		}
	}
	if declared == 0 {
		t.Fatal("no trace-fitted schema declares FitIgnoresProfile")
	}
	fix, _ := reg.Lookup(RoleActive, "fix")
	if fix.FitIgnoresProfile || !varies(fix) {
		t.Fatalf("fix (FitIgnoresProfile=%v) builds the same policy under every profile", fix.FitIgnoresProfile)
	}
}

// TestRegisterValidation: malformed schemas cannot enter a registry, so
// every registered policy is guaranteed self-describing.
func TestRegisterValidation(t *testing.T) {
	dem := func(Params, trace.Trace, power.Profile) (DemotePolicy, error) { return StatusQuo{}, nil }
	act := func(Params, trace.Trace, power.Profile) (ActivePolicy, error) { return nil, nil }
	bad := []*Schema{
		{Role: RoleDemote, NewDemote: dem},                            // no name
		{Name: "x(y)", Role: RoleDemote, NewDemote: dem},              // reserved chars
		{Name: "x", Role: "sideways", NewDemote: dem},                 // bad role
		{Name: "x", Role: RoleDemote},                                 // no builder
		{Name: "x", Role: RoleDemote, NewDemote: dem, NewActive: act}, // both builders
		{Name: "x", Role: RoleActive, NewDemote: dem},                 // wrong builder
		{Name: "x", Role: RoleDemote, NewDemote: dem, Params: []ParamSpec{{ // no default
			Name: "p", Kind: KindInt}}},
		{Name: "x", Role: RoleDemote, NewDemote: dem, Params: []ParamSpec{{ // mistyped default
			Name: "p", Kind: KindInt, Default: "ten"}}},
		{Name: "x", Role: RoleDemote, NewDemote: dem, Params: []ParamSpec{{ // default out of bounds
			Name: "p", Kind: KindInt, Default: 0, Min: 1}}},
		{Name: "x", Role: RoleDemote, NewDemote: dem, Params: []ParamSpec{ // duplicate param
			{Name: "p", Kind: KindInt, Default: 1}, {Name: "p", Kind: KindInt, Default: 2}}},
	}
	for i, s := range bad {
		if err := NewRegistry().Register(s); err == nil {
			t.Errorf("schema %d accepted: %+v", i, s)
		}
	}
	r := NewRegistry()
	ok := &Schema{Name: "x", Role: RoleDemote, NewDemote: dem}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := r.Alias(RoleDemote, "y", Spec{Name: "nope"}); err == nil {
		t.Error("alias to unknown schema accepted")
	}
	if err := r.Alias(RoleDemote, "x", Spec{Name: "x"}); err == nil {
		t.Error("alias shadowing a schema accepted")
	}
	if err := r.Alias(RoleDemote, "y", Spec{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Alias(RoleDemote, "y", Spec{Name: "x"}); err == nil {
		t.Error("duplicate alias accepted")
	}
}

func TestUsageListsEverything(t *testing.T) {
	usage := Default().Usage(RoleDemote)
	for _, want := range []string{"statusquo", "fixedtail", "pctiat", "oracle", "makeidle",
		"wait", "default 4.5s", "4.5s", "95iat"} {
		if !strings.Contains(usage, want) {
			t.Errorf("usage missing %q:\n%s", want, usage)
		}
	}
}
