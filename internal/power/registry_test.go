package power

import (
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// build resolves a profile spec and builds its Profile, named by the
// registry label.
func build(s spec.Spec) (Profile, error) {
	res, err := Default().Resolution(s)
	return res.Profile, err
}

// canonical reads a profile spec's canonical encoding off its Resolution.
func canonical(r *Registry, s spec.Spec) (string, error) {
	res, err := r.Resolution(s)
	return res.Canonical, err
}

// TestProfileValidatePathological is the table-driven guard for custom
// profiles: every malformed field pattern must be rejected, and the legal
// oddities of Table 2 (t2 > t1, t2 = 0 with a dummy t2 power) must not.
func TestProfileValidatePathological(t *testing.T) {
	valid := func() Profile { return Verizon3G } // a known-good base to mutate
	cases := []struct {
		name    string
		mutate  func(*Profile)
		wantErr error // nil means the profile must validate
	}{
		{"base profile valid", func(p *Profile) {}, nil},
		{"empty name", func(p *Profile) { p.Name = "" }, ErrNoName},
		{"negative t1 timer", func(p *Profile) { p.T1 = -time.Second }, ErrBadTimer},
		{"zero t1 timer", func(p *Profile) { p.T1 = 0 }, ErrBadTimer},
		{"negative t2 timer", func(p *Profile) { p.T2 = -time.Second }, ErrBadTimer},
		{"zero send power", func(p *Profile) { p.SendMW = 0 }, ErrBadPower},
		{"negative send power", func(p *Profile) { p.SendMW = -10 }, ErrBadPower},
		{"zero recv power", func(p *Profile) { p.RecvMW = 0 }, ErrBadPower},
		{"negative t1 power", func(p *Profile) { p.T1MW = -1 }, ErrBadPower},
		{"t2 set but t2 power zero", func(p *Profile) { p.T2 = time.Second; p.T2MW = 0 }, ErrT2PowerNeeded},
		{"t2 set but t2 power negative", func(p *Profile) { p.T2 = time.Second; p.T2MW = -5 }, ErrT2PowerNeeded},
		// Table 2's T-Mobile row has t2 (16.3 s) > t1 (3.2 s): the FACH
		// stage may legitimately outlast the DCH stage.
		{"t2 longer than t1 is legal", func(p *Profile) { p.T2 = 20 * time.Second; p.T2MW = 300 }, nil},
		{"t2 zero with stale t2 power is legal", func(p *Profile) { p.T2 = 0; p.T2MW = 1130 }, nil},
		{"LTE with nonzero t2", func(p *Profile) { p.Tech = TechLTE; p.T2 = time.Second; p.T2MW = 1 }, ErrBadTech},
		{"dormancy fraction zero", func(p *Profile) { p.DormancyFraction = 0 }, ErrBadDormancy},
		{"dormancy fraction negative", func(p *Profile) { p.DormancyFraction = -0.5 }, ErrBadDormancy},
		{"dormancy fraction above one", func(p *Profile) { p.DormancyFraction = 1.5 }, ErrBadDormancy},
		{"dormancy fraction exactly one is legal", func(p *Profile) { p.DormancyFraction = 1 }, nil},
		{"zero uplink rate", func(p *Profile) { p.UplinkMbps = 0 }, ErrBadLinkRate},
		{"negative downlink rate", func(p *Profile) { p.DownlinkMbps = -1 }, ErrBadLinkRate},
		{"zero promotion delay", func(p *Profile) { p.PromotionDelay = 0 }, ErrBadPromotion},
		{"negative promotion power", func(p *Profile) { p.PromotionMW = -1 }, ErrBadPromotion},
		{"zero radio-off energy", func(p *Profile) { p.RadioOffJ = 0 }, ErrBadRadioOff},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := valid()
			c.mutate(&p)
			err := p.Validate()
			if c.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want %v", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr.Error()) {
				t.Fatalf("got %v, want %v", err, c.wantErr)
			}
		})
	}
}

// TestRegistryDefaultsMatchTable2Vars: every base schema built at its
// defaults reproduces the measured profile var field for field (the
// registry is derived from the vars, and this guards against drift).
func TestRegistryDefaultsMatchTable2Vars(t *testing.T) {
	cases := []struct {
		name string
		want Profile
	}{
		{"tmobile-3g", TMobile3G},
		{"att-hspa+", ATTHSPAPlus},
		{"verizon-3g", Verizon3G},
		{"verizon-lte", VerizonLTE},
	}
	for _, c := range cases {
		got, err := ProfileSpec{Label: c.want.Name, Name: c.name}.Profile(Default())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s built from defaults differs from the var:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

// TestByName: a profile resolves by its Table 2 display name through the
// registry, and an unknown name is rejected.
func TestByName(t *testing.T) {
	p, err := ProfileSpec{Name: "Verizon LTE"}.Profile(Default())
	if err != nil || p.Tech != TechLTE {
		t.Fatalf("display-name lookup failed: %v %+v", err, p)
	}
	if _, err := (ProfileSpec{Name: "Sprint 5G"}).Profile(Default()); err == nil {
		t.Fatal("unknown name found")
	}
}

// TestByNameShimAcceptsBothSpellings: the Table 2 display names resolve as
// registry aliases (a display-name label keeps the paper's spelling and
// rebuilds the exact var), canonical names resolve too, and unknowns are
// rejected.
func TestByNameShimAcceptsBothSpellings(t *testing.T) {
	r := Default()
	for _, want := range []Profile{TMobile3G, ATTHSPAPlus, Verizon3G, VerizonLTE} {
		p, err := ProfileSpec{Label: want.Name, Name: want.Name}.Profile(r)
		if err != nil || p != want {
			t.Fatalf("display-name lookup of %q broke: %v %+v", want.Name, err, p)
		}
	}
	p, err := ProfileSpec{Name: "verizon-lte"}.Profile(r)
	if err != nil || p.Name != "verizon-lte" || p.Tech != TechLTE || p.T1 != VerizonLTE.T1 {
		t.Fatalf("canonical lookup broke: %v %+v", err, p)
	}
	if _, err := (ProfileSpec{Name: "Nokia 1G"}).Profile(r); err == nil {
		t.Fatal("unknown profile resolved")
	}
}

// TestProfileKnobOverrides: every measured constant is an overridable,
// bounds-checked knob, and overrides propagate into the built profile.
func TestProfileKnobOverrides(t *testing.T) {
	p, err := build(spec.Spec{Name: "verizon-lte", Params: map[string]any{
		"t1": "5s", "t1power": 1000, "dormancy": 0.2, "uplink": 4.0,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if p.T1 != 5*time.Second || p.T1MW != 1000 || p.DormancyFraction != 0.2 || p.UplinkMbps != 4.0 {
		t.Fatalf("overrides not applied: %+v", p)
	}
	if p.Name != "verizon-lte(t1=5s,t1power=1000,dormancy=0.2,uplink=4)" {
		t.Fatalf("label %q does not list the non-default knobs in declaration order", p.Name)
	}
	// Untouched knobs keep their measured defaults.
	if p.SendMW != VerizonLTE.SendMW || p.PromotionDelay != VerizonLTE.PromotionDelay {
		t.Fatalf("defaults drifted: %+v", p)
	}

	for _, bad := range []spec.Spec{
		{Name: "verizon-lte", Params: map[string]any{"t1": "-1s"}},
		{Name: "verizon-lte", Params: map[string]any{"dormancy": 1.5}},
		{Name: "verizon-lte", Params: map[string]any{"t2": "1s"}}, // LTE has no t2 knob
		{Name: "verizon-3g", Params: map[string]any{"sendmw": 100}},
		{Name: "warp-radio"},
	} {
		if _, err := build(bad); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
	// 3G profiles do expose t2 — including t2 > t1, per Table 2.
	p3, err := build(spec.Spec{Name: "verizon-3g", Params: map[string]any{"t2": "12s"}})
	if err != nil {
		t.Fatal(err)
	}
	if p3.T2 != 12*time.Second {
		t.Fatalf("t2 override not applied: %+v", p3)
	}
	if p3.T2 <= p3.T1 {
		t.Fatalf("test meant to exercise t2 > t1: %+v", p3)
	}
}

// TestProfileCanonicalStability: alias spelling, omitted defaults,
// param-map order and value spellings all encode identically; any value
// change moves the encoding.
func TestProfileCanonicalStability(t *testing.T) {
	reg := Default()
	want, err := canonical(reg, spec.Spec{Name: "verizon-lte"})
	if err != nil {
		t.Fatal(err)
	}
	equal := []spec.Spec{
		{Name: "Verizon LTE"},
		{Name: "verizon-lte", Params: map[string]any{"t1": "10.2s"}},
		{Name: "verizon-lte", Params: map[string]any{"t1": "10200ms", "dormancy": 0.5}},
		{Name: "Verizon LTE", Params: map[string]any{"uplink": 8}},
	}
	for i, s := range equal {
		got, err := canonical(reg, s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("equivalent spec %d encoded %q, want %q", i, got, want)
		}
	}
	changed, err := canonical(reg, spec.Spec{Name: "verizon-lte", Params: map[string]any{"t1": "5s"}})
	if err != nil {
		t.Fatal(err)
	}
	if changed == want {
		t.Fatal("t1 override did not change the canonical encoding")
	}
}
