package spec

import (
	"strings"
	"testing"
	"time"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry("widget", nil)
	err := r.Register(&Schema{
		Name:    "gadget",
		Summary: "a test schema exercising every kind",
		Params: []ParamSpec{
			{Name: "wait", Kind: KindDuration, Default: 4500 * time.Millisecond,
				Min: time.Millisecond, Max: time.Minute, Help: "a duration"},
			{Name: "q", Kind: KindFloat, Default: 0.95, Min: 0.0, Max: 1.0, Help: "a float"},
			{Name: "n", Kind: KindInt, Default: 10, Min: 1, Max: 100, Help: "an int"},
			{Name: "on", Kind: KindBool, Default: true, Help: "a bool"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Alias("legacy name", Spec{Name: "gadget", Params: map[string]any{"n": 20}}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"gadget", Spec{Name: "gadget"}},
		{" gadget ( wait = 2s , n = 5 ) ", Spec{Name: "gadget", Params: map[string]any{"wait": "2s", "n": "5"}}},
		{"gadget()", Spec{Name: "gadget"}},
		{"legacy name", Spec{Name: "legacy name"}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got.Name != c.want.Name || len(got.Params) != len(c.want.Params) {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "gadget(", "gadget(x)", "(n=1)", "gadget(n=1,n=2)", "gadget(=1)"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestResolveCoercionAndBounds(t *testing.T) {
	r := testRegistry(t)
	// Every accepted input form coerces to the canonical type.
	_, p, err := r.Resolve(Spec{Name: "gadget", Params: map[string]any{
		"wait": "2s", "q": "0.5", "n": float64(7), "on": "false",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration("wait") != 2*time.Second || p.Float("q") != 0.5 || p.Int("n") != 7 || p.Bool("on") {
		t.Fatalf("coercion wrong: %+v", p)
	}
	// Omitted params resolve to defaults.
	_, p, err = r.Resolve(Spec{Name: "gadget"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration("wait") != 4500*time.Millisecond || !p.Bool("on") {
		t.Fatalf("defaults wrong: %+v", p)
	}
	for _, bad := range []map[string]any{
		{"wait": "2h"},          // above max
		{"wait": "0s"},          // below min
		{"q": 1.5},              // above max
		{"q": "NaN"},            // not finite
		{"n": 2.5},              // not an integer
		{"on": "maybe"},         // not a bool
		{"missing": 1},          // unknown param
		{"wait": []string{"x"}}, // uncoercible type
	} {
		if _, _, err := r.Resolve(Spec{Name: "gadget", Params: bad}); err == nil {
			t.Errorf("params %+v accepted", bad)
		}
	}
	if _, _, err := r.Resolve(Spec{Name: "nonesuch"}); err == nil ||
		!strings.Contains(err.Error(), "unknown widget") {
		t.Fatalf("unknown name error: %v", err)
	}
}

// resolution resolves a spec against r, failing the test on error.
func resolution(t *testing.T, r *Registry, s Spec) Resolution {
	t.Helper()
	res, err := r.Resolution(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCanonicalAndLabel(t *testing.T) {
	r := testRegistry(t)
	want := resolution(t, r, Spec{Name: "gadget"}).Canonical
	if want != "gadget(wait=4.5s,q=0.95,n=10,on=true)" {
		t.Fatalf("canonical %q", want)
	}
	// Equivalent spellings encode identically.
	for i, s := range []Spec{
		{Name: "gadget", Params: map[string]any{"wait": "4500ms"}},
		{Name: "gadget", Params: map[string]any{"q": 0.95, "on": true}},
	} {
		if got := resolution(t, r, s).Canonical; got != want {
			t.Errorf("spec %d canonical %q, want %q", i, got, want)
		}
	}
	// The alias layers its params under the caller's overrides.
	if got := resolution(t, r, Spec{Name: "legacy name"}).Canonical; got != "gadget(wait=4.5s,q=0.95,n=20,on=true)" {
		t.Fatalf("alias canonical %q", got)
	}
	got := resolution(t, r, Spec{Name: "legacy name", Params: map[string]any{"n": 30}}).Canonical
	if !strings.Contains(got, "n=30") {
		t.Fatalf("override does not win over alias params: %q", got)
	}
	// Labels keep only the non-defaults.
	label := resolution(t, r, Spec{Name: "gadget", Params: map[string]any{"wait": "2s", "n": 10}}).Label
	if label != "gadget(wait=2s)" {
		t.Fatalf("label %q", label)
	}
	if label := resolution(t, r, Spec{Name: "gadget"}).Label; label != "gadget" {
		t.Fatalf("all-default label %q", label)
	}
}

func TestRegisterRejectsMalformedSchemas(t *testing.T) {
	bad := []*Schema{
		{Name: ""},
		{Name: "has space"},
		{Name: "has(paren"},
		{Name: "x", Params: []ParamSpec{{Name: "", Kind: KindInt, Default: 1}}},
		{Name: "x", Params: []ParamSpec{{Name: "p", Kind: "complex", Default: 1}}},
		{Name: "x", Params: []ParamSpec{{Name: "p", Kind: KindInt}}},                                                     // no default
		{Name: "x", Params: []ParamSpec{{Name: "p", Kind: KindInt, Default: 0, Min: 1}}},                                 // default out of bounds
		{Name: "x", Params: []ParamSpec{{Name: "p", Kind: KindInt, Default: "1"}}},                                       // mistyped default
		{Name: "x", Params: []ParamSpec{{Name: "p", Kind: KindBool, Default: true, Min: false}}},                         // bool bounds
		{Name: "x", Params: []ParamSpec{{Name: "p", Kind: KindInt, Default: 1}, {Name: "p", Kind: KindInt, Default: 2}}}, // dup
	}
	for i, s := range bad {
		r := NewRegistry("widget", nil)
		if err := r.Register(s); err == nil {
			t.Errorf("schema %d accepted: %+v", i, s)
		}
	}

	r := testRegistry(t)
	if err := r.Register(&Schema{Name: "gadget"}); err == nil {
		t.Error("duplicate schema accepted")
	}
	if err := r.Alias("gadget", Spec{Name: "gadget"}); err == nil {
		t.Error("alias shadowing a schema accepted")
	}
	if err := r.Alias("broken", Spec{Name: "gadget", Params: map[string]any{"n": -1}}); err == nil {
		t.Error("unresolvable alias accepted")
	}
	if err := r.Alias("bad|alias", Spec{Name: "gadget"}); err == nil {
		t.Error("alias with reserved characters accepted")
	}
}

func TestDescribeAndUsage(t *testing.T) {
	r := testRegistry(t)
	infos := r.Describe()
	if len(infos) != 1 || infos[0].Name != "gadget" {
		t.Fatalf("describe: %+v", infos)
	}
	if len(infos[0].Params) != 4 {
		t.Fatalf("describe lists %d params", len(infos[0].Params))
	}
	if got := infos[0].Aliases; len(got) != 1 || got[0] != "legacy name" {
		t.Fatalf("aliases: %v", got)
	}
	for _, pi := range infos[0].Params {
		if pi.Kind == "" || pi.Default == "" {
			t.Fatalf("param %q missing kind or default", pi.Name)
		}
	}
	usage := r.Usage()
	for _, want := range []string{"gadget", "wait", "legacy name", "alias for"} {
		if !strings.Contains(usage, want) {
			t.Errorf("usage missing %q:\n%s", want, usage)
		}
	}
}
