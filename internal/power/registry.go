package power

import (
	"fmt"
	"time"

	"repro/internal/spec"
)

// This file makes the Table 2 carriers a self-describing registry: each
// carrier is a base schema whose every measured constant — inactivity
// timers, state powers, promotion delay and power, radio-off energy,
// dormancy fraction, link rates — is an overridable, bounds-checked knob.
// "verizon-lte(t1=5s)" is the paper's LTE profile with a 5-second
// inactivity timer, and the cross-carrier experiments (Figs. 17-18) are a
// list of profile specs instead of a closed slice. The paper's display
// names ("Verizon 3G") are registered as aliases.

// profileMeta is the domain payload of a profile schema: the RRC machine
// shape (not a knob — it decides which timers exist at all) and the
// paper's display name for the carrier.
type profileMeta struct {
	tech    Tech
	display string
}

// Registry resolves profile specs — "verizon-3g", "att-hspa+(t1=4s)", or
// a legacy display name — into validated Profiles.
type Registry struct {
	reg *spec.Registry
}

// NewRegistry returns an empty profile registry.
func NewRegistry() *Registry {
	return &Registry{reg: spec.NewRegistry("profile", func(s *spec.Schema) error {
		if _, ok := s.Meta.(profileMeta); !ok {
			return fmt.Errorf("power: profile schema %q has no tech/display meta", s.Name)
		}
		return nil
	})}
}

// Names lists every accepted profile name — canonical and alias — sorted.
func (r *Registry) Names() []string { return r.reg.Names() }

// Aliases lists the registered alias names sorted.
func (r *Registry) Aliases() []string { return r.reg.Aliases() }

// Schemas lists the registered profile schemas sorted by name.
func (r *Registry) Schemas() []*spec.Schema { return r.reg.Schemas() }

// Describe returns the serializable registry view — the payload of the
// GET /v1/profiles discovery endpoint.
func (r *Registry) Describe() []spec.SchemaInfo { return r.reg.Describe() }

// Usage renders the profile catalog for CLI error messages.
func (r *Registry) Usage() string { return r.reg.Usage() }

// buildProfile assembles and validates a Profile from a resolved schema.
func buildProfile(schema *spec.Schema, params spec.Params, name string) (Profile, error) {
	meta := schema.Meta.(profileMeta)
	p := Profile{
		Name:             name,
		Tech:             meta.tech,
		SendMW:           params.Float("send"),
		RecvMW:           params.Float("recv"),
		T1MW:             params.Float("t1power"),
		T1:               params.Duration("t1"),
		PromotionDelay:   params.Duration("promodelay"),
		PromotionMW:      params.Float("promopower"),
		RadioOffJ:        params.Float("radiooff"),
		DormancyFraction: params.Float("dormancy"),
		UplinkMbps:       params.Float("uplink"),
		DownlinkMbps:     params.Float("downlink"),
	}
	if schema.Has("t2") {
		p.T2 = params.Duration("t2")
		p.T2MW = params.Float("t2power")
	}
	if err := p.Validate(); err != nil {
		return Profile{}, fmt.Errorf("profile %q: %w", schema.Name, err)
	}
	return p, nil
}

// ProfileResolution is one resolution pass over a profile spec: the
// validated Profile (named by the registry label) plus both registry
// encodings (spec.Resolution) — the canonical name with every parameter in
// declaration order, which the v4 job fingerprint hashes, and the short
// label with only the non-default parameters, e.g. "verizon-lte(t1=5s)".
type ProfileResolution struct {
	Profile   Profile
	Canonical string
	Label     string
}

// Resolution resolves a profile spec once and returns the full bundle.
func (r *Registry) Resolution(s spec.Spec) (ProfileResolution, error) {
	res, err := r.reg.Resolution(s)
	if err != nil {
		return ProfileResolution{}, err
	}
	p, err := buildProfile(res.Schema, res.Params, res.Label)
	if err != nil {
		return ProfileResolution{}, err
	}
	return ProfileResolution{Profile: p, Canonical: res.Canonical, Label: res.Label}, nil
}

// Register adds a carrier base schema derived from a measured Profile:
// every field becomes a knob whose default is the measurement. LTE
// profiles declare no t2/t2power knobs — the machine shape has no second
// timer stage (Fig. 5), so it is structural, not tunable.
func (r *Registry) Register(name string, base Profile, summary string) error {
	params := []spec.ParamSpec{
		{Name: "t1", Kind: spec.KindDuration, Default: base.T1,
			Min: time.Millisecond, Max: 10 * time.Minute,
			Help: "DCH/CONNECTED inactivity timer t1 (Table 2)"},
	}
	if base.Tech == Tech3G {
		params = append(params,
			spec.ParamSpec{Name: "t2", Kind: spec.KindDuration, Default: base.T2,
				Min: time.Duration(0), Max: 10 * time.Minute,
				Help: "FACH inactivity timer t2 (0 when the stages are indistinct)"},
		)
	}
	params = append(params,
		spec.ParamSpec{Name: "t1power", Kind: spec.KindFloat, Default: base.T1MW,
			Min: 1.0, Max: 100_000.0, Help: "Active-tail state power (mW)"},
	)
	if base.Tech == Tech3G {
		params = append(params,
			spec.ParamSpec{Name: "t2power", Kind: spec.KindFloat, Default: base.T2MW,
				Min: 0.0, Max: 100_000.0, Help: "FACH state power (mW); ignored when t2 = 0"},
		)
	}
	params = append(params,
		spec.ParamSpec{Name: "send", Kind: spec.KindFloat, Default: base.SendMW,
			Min: 1.0, Max: 100_000.0, Help: "bulk transmit power (mW, Table 1)"},
		spec.ParamSpec{Name: "recv", Kind: spec.KindFloat, Default: base.RecvMW,
			Min: 1.0, Max: 100_000.0, Help: "bulk receive power (mW, Table 1)"},
		spec.ParamSpec{Name: "promodelay", Kind: spec.KindDuration, Default: base.PromotionDelay,
			Min: time.Millisecond, Max: time.Minute,
			Help: "Idle->Active promotion latency (§2.1)"},
		spec.ParamSpec{Name: "promopower", Kind: spec.KindFloat, Default: base.PromotionMW,
			Min: 1.0, Max: 100_000.0, Help: "power drawn during promotion signaling (mW)"},
		spec.ParamSpec{Name: "radiooff", Kind: spec.KindFloat, Default: base.RadioOffJ,
			Min: 0.001, Max: 1_000.0, Help: "measured radio-off energy (J, §6.1)"},
		spec.ParamSpec{Name: "dormancy", Kind: spec.KindFloat, Default: base.DormancyFraction,
			Min: 0.01, Max: 1.0,
			Help: "fraction of radiooff charged per fast-dormancy demotion"},
		spec.ParamSpec{Name: "uplink", Kind: spec.KindFloat, Default: base.UplinkMbps,
			Min: 0.01, Max: 10_000.0, Help: "nominal uplink rate (Mbps)"},
		spec.ParamSpec{Name: "downlink", Kind: spec.KindFloat, Default: base.DownlinkMbps,
			Min: 0.01, Max: 10_000.0, Help: "nominal downlink rate (Mbps)"},
	)
	return r.reg.Register(&spec.Schema{
		Name:    name,
		Summary: summary,
		Params:  params,
		Meta:    profileMeta{tech: base.Tech, display: base.Name},
	})
}

// Alias maps an alternate spelling (the Table 2 display names, spaces and
// all) to a profile spec.
func (r *Registry) Alias(name string, s spec.Spec) error { return r.reg.Alias(name, s) }

// display returns the paper display name of a canonical schema name.
func (r *Registry) display(name string) (string, bool) {
	s, ok := r.reg.Lookup(name)
	if !ok {
		return "", false
	}
	return s.Meta.(profileMeta).display, true
}

// carrierOrder lists the canonical schema names in the order the paper's
// cross-carrier figures (17 and 18) use.
var carrierOrder = []string{"tmobile-3g", "att-hspa+", "verizon-3g", "verizon-lte"}

// defaultRegistry holds the built-in Table 2 carriers; registration cannot
// fail, so errors panic (programming errors caught by any test).
var defaultRegistry = buildDefaultRegistry()

// Default returns the registry of built-in carrier profiles: the four
// Table 2 rows as parameterized base schemas plus their legacy display
// names as aliases.
func Default() *Registry { return defaultRegistry }

func buildDefaultRegistry() *Registry {
	r := NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(r.Register("tmobile-3g", TMobile3G,
		"T-Mobile 3G (Nexus S): two-stage WCDMA machine, short t1, long FACH tail"))
	must(r.Register("att-hspa+", ATTHSPAPlus,
		"AT&T HSPA+ (HTC Vivid): two-stage machine, highest state powers of the 3G rows"))
	must(r.Register("verizon-3g", Verizon3G,
		"Verizon 3G (Galaxy Nexus): stages indistinct (t2 = 0), 9.8 s single tail"))
	must(r.Register("verizon-lte", VerizonLTE,
		"Verizon LTE (Galaxy Nexus): one CONNECTED state, 10.2 s timer"))
	for _, name := range carrierOrder {
		display, _ := r.display(name)
		must(r.Alias(display, spec.Spec{Name: name}))
	}
	return r
}
