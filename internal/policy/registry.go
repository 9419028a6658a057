package policy

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Role distinguishes the two policy slots of a scheme, matching the two
// halves of the control module (Fig. 4): demote policies run while the
// radio is Active, active (batching) policies while it is Idle.
type Role string

// The two policy roles.
const (
	RoleDemote Role = "demote"
	RoleActive Role = "active"
)

// Schema is one registered policy: its name, parameter declarations,
// capabilities, and builder. Exactly one of NewDemote/NewActive is set,
// matching Role. Builders receive fully resolved Params (every parameter
// present, coerced and bounds-checked) plus the trace and profile; tr is
// nil unless TraceFitted is set, so only trace-fitted builders may touch
// it.
type Schema struct {
	Name    string
	Role    Role
	Summary string
	Params  []ParamSpec

	// TraceFitted marks policies whose builder must see the materialized
	// trace (the 95% IAT quantile fit, the MakeActive-Fix bound). The
	// fleet uses this capability to decide which jobs need a fit pass.
	//
	// A trace-fitted builder must return a policy that is immutable after
	// construction: Reset, Observe and ObserveEpisode do nothing, and
	// Decide and Delay read only state fixed at fit time. The builder and
	// its policy must neither modify tr nor retain it past the call: the
	// fleet collects every fit's trace into one reusable buffer per
	// worker and replays the job's other passes over the same packets
	// from it. That contract is what lets the fleet fit once per (spec,
	// trace) and share the one policy between every job replaying that
	// trace, concurrently. PercentileIAT and FixedDelay meet it.
	TraceFitted bool
	// FitIgnoresProfile declares that a TraceFitted builder does not read
	// its profile argument, so one fit serves every profile (pctiat: the
	// quantile depends only on the trace). The zero value means the
	// builder reads the profile, which is always safe: a fitted schema
	// that leaves it unset is just fitted once per profile (fix reads
	// Tail()).
	FitIgnoresProfile bool
	// GapLookahead marks clairvoyant policies (the Oracle): the simulator
	// feeds them the next inter-arrival gap before each decision.
	GapLookahead bool
	// WaitRule declares that every policy the builder returns, under any
	// profile, decides by a wait rule (sim.Wait): a constant wait or the
	// Oracle's threshold. The planner reads it to put the scheme on a
	// grid's wait axis, replayed for every profile in one pass per user,
	// without building the policy to find out. sim.WaitOf must agree with
	// it on every built policy (TestWaitRuleCapabilityMatchesWaitOf).
	WaitRule bool

	NewDemote func(p Params, tr trace.Trace, prof power.Profile) (DemotePolicy, error)
	NewActive func(p Params, tr trace.Trace, prof power.Profile) (ActivePolicy, error)
}

// validateRole rejects schemas whose role and builders disagree; the
// structural checks (name charset, parameter declarations) belong to the
// shared spec registry.
func (s *Schema) validateRole() error {
	switch s.Role {
	case RoleDemote:
		if s.NewDemote == nil || s.NewActive != nil {
			return fmt.Errorf("policy: demote schema %q must set exactly NewDemote", s.Name)
		}
	case RoleActive:
		if s.NewActive == nil || s.NewDemote != nil {
			return fmt.Errorf("policy: active schema %q must set exactly NewActive", s.Name)
		}
	default:
		return fmt.Errorf("policy: schema %q has unknown role %q", s.Name, s.Role)
	}
	return nil
}

// Registry holds policy schemas by (role, name) plus legacy flat-name
// aliases that expand to parameterized specs — two shared spec.Registry
// instances, one per role, with the policy payload (capabilities and
// builders) carried in each schema's Meta. It is the single authority on
// which policies exist, what their knobs are, and what capabilities they
// have.
type Registry struct {
	regs map[Role]*spec.Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{regs: map[Role]*spec.Registry{
		RoleDemote: spec.NewRegistry("demote policy", nil),
		RoleActive: spec.NewRegistry("active policy", nil),
	}}
}

// reg returns the role's underlying registry (an empty one for unknown
// roles, so lookups fail with the registry's own error paths).
func (r *Registry) reg(role Role) *spec.Registry {
	if reg, ok := r.regs[role]; ok {
		return reg
	}
	return spec.NewRegistry(string(role)+" policy", nil)
}

// Register adds a schema, rejecting malformed or duplicate ones.
func (r *Registry) Register(s *Schema) error {
	if err := s.validateRole(); err != nil {
		return err
	}
	return r.reg(s.Role).Register(&spec.Schema{
		Name: s.Name, Summary: s.Summary, Params: s.Params, Meta: s,
	})
}

// Alias maps a legacy flat name to a spec, which must itself fully
// resolve — name, parameter coercion and bounds — so a broken alias can
// never register and poison later lookups.
func (r *Registry) Alias(role Role, name string, spec Spec) error {
	return r.reg(role).Alias(name, spec)
}

// Lookup returns the schema registered under a canonical name (aliases do
// not resolve here; use Resolve for full name resolution).
func (r *Registry) Lookup(role Role, name string) (*Schema, bool) {
	s, ok := r.reg(role).Lookup(name)
	if !ok {
		return nil, false
	}
	return s.Meta.(*Schema), true
}

// Schemas lists a role's registered schemas sorted by name.
func (r *Registry) Schemas(role Role) []*Schema {
	raw := r.reg(role).Schemas()
	out := make([]*Schema, len(raw))
	for i, s := range raw {
		out[i] = s.Meta.(*Schema)
	}
	return out
}

// Aliases lists a role's alias names sorted.
func (r *Registry) Aliases(role Role) []string { return r.reg(role).Aliases() }

// Names lists every accepted name for a role — canonical schema names and
// aliases — sorted.
func (r *Registry) Names(role Role) []string { return r.reg(role).Names() }

// Resolve expands aliases and resolves a spec's parameters against the
// schema: unknown parameters are rejected, values coerced to their
// canonical types and bounds-checked, and omitted parameters filled from
// defaults. The returned Params is complete — builders never see a
// missing key.
func (r *Registry) Resolve(role Role, sp Spec) (*Schema, Params, error) {
	schema, params, err := r.reg(role).Resolve(sp)
	if err != nil {
		return nil, nil, err
	}
	return schema.Meta.(*Schema), params, nil
}

// Resolution is one resolution pass over a policy spec: the policy schema
// (builders, capabilities), the resolved parameters, and both registry
// encodings (spec.Resolution). Canonical is what the job fingerprint (v4)
// hashes; Label keys sweep summaries, so "fixedtail(wait=2s)" and plain
// "fixedtail" (the 4.5 s default) stay distinct and readable.
type Resolution struct {
	Schema    *Schema
	Params    Params
	Canonical string
	Label     string
}

// Resolution resolves a spec once and returns the full bundle.
func (r *Registry) Resolution(role Role, sp Spec) (Resolution, error) {
	res, err := r.reg(role).Resolution(sp)
	if err != nil {
		return Resolution{}, err
	}
	return Resolution{
		Schema:    res.Schema.Meta.(*Schema),
		Params:    res.Params,
		Canonical: res.Canonical,
		Label:     res.Label,
	}, nil
}

// BuildDemote resolves and constructs a demote policy. tr may be nil
// unless the resolved schema is TraceFitted.
func (r *Registry) BuildDemote(spec Spec, tr trace.Trace, prof power.Profile) (DemotePolicy, error) {
	schema, params, err := r.Resolve(RoleDemote, spec)
	if err != nil {
		return nil, err
	}
	return schema.NewDemote(params, tr, prof)
}

// BuildActive resolves and constructs an active (batching) policy; the
// "none" policy yields nil, meaning batching disabled.
func (r *Registry) BuildActive(spec Spec, tr trace.Trace, prof power.Profile) (ActivePolicy, error) {
	schema, params, err := r.Resolve(RoleActive, spec)
	if err != nil {
		return nil, err
	}
	return schema.NewActive(params, tr, prof)
}

// ParamInfo is the serializable view of a ParamSpec, values in canonical
// string form (the same forms Canonical uses).
type ParamInfo = spec.ParamInfo

// SchemaInfo is the serializable view of a Schema plus its aliases — the
// payload of the /v1/policies discovery endpoint.
type SchemaInfo struct {
	Name         string      `json:"name"`
	Role         Role        `json:"role"`
	Summary      string      `json:"summary,omitempty"`
	Params       []ParamInfo `json:"params"`
	TraceFitted  bool        `json:"trace_fitted"`
	GapLookahead bool        `json:"gap_lookahead"`
	Aliases      []string    `json:"aliases,omitempty"`
}

// Describe returns the serializable view of a role's schemas, sorted by
// name, each carrying the alias names that expand to it.
func (r *Registry) Describe(role Role) []SchemaInfo {
	raw := r.reg(role).Describe()
	out := make([]SchemaInfo, 0, len(raw))
	for _, info := range raw {
		s, _ := r.Lookup(role, info.Name)
		out = append(out, SchemaInfo{
			Name: info.Name, Role: role, Summary: info.Summary,
			Params:      info.Params,
			TraceFitted: s.TraceFitted, GapLookahead: s.GapLookahead,
			Aliases: info.Aliases,
		})
	}
	return out
}

// Usage renders a role's policies as an indented reference block for CLI
// error messages: one line per schema with its parameter grid, then the
// aliases.
func (r *Registry) Usage(role Role) string { return r.reg(role).Usage() }

// defaultRegistry holds the built-in policies; construction cannot fail,
// so registration errors panic (they would be programming errors caught by
// any test touching the registry).
var defaultRegistry = buildDefaultRegistry()

// Default returns the registry of built-in policies: the paper's baselines
// and contributions as parameterized schemas, plus the legacy flat-name
// aliases ("4.5s", "95iat") every pre-registry surface accepted.
func Default() *Registry { return defaultRegistry }

func buildDefaultRegistry() *Registry {
	r := NewRegistry()
	mustRegister := func(s *Schema) {
		if err := r.Register(s); err != nil {
			panic(err)
		}
	}
	mustRegister(&Schema{
		Name: "statusquo", Role: RoleDemote,
		Summary:  "carrier inactivity timers only (the normalization baseline)",
		WaitRule: true,
		NewDemote: func(Params, trace.Trace, power.Profile) (DemotePolicy, error) {
			return StatusQuo{}, nil
		},
	})
	mustRegister(&Schema{
		Name: "fixedtail", Role: RoleDemote,
		Summary:  "fast dormancy a fixed wait after every packet (§6.2's 4.5-second tail)",
		WaitRule: true,
		Params: []ParamSpec{{
			Name: "wait", Kind: KindDuration, Default: 4500 * time.Millisecond,
			Min: time.Millisecond, Max: 10 * time.Minute,
			Help: "dormancy timer applied after each packet",
		}},
		NewDemote: func(p Params, _ trace.Trace, _ power.Profile) (DemotePolicy, error) {
			f := &FixedTail{Wait: p.Duration("wait")}
			// The simulator stamps Name() on every result; freeze the
			// derived "FixedTail(wait)" form here so replays don't
			// rebuild the string once per run.
			f.Label = f.Name()
			return f, nil
		},
	})
	mustRegister(&Schema{
		Name: "pctiat", Role: RoleDemote,
		Summary:           "fast dormancy after a whole-trace inter-arrival percentile (§6.2's 95% IAT)",
		TraceFitted:       true,
		FitIgnoresProfile: true,
		WaitRule:          true,
		Params: []ParamSpec{{
			Name: "q", Kind: KindFloat, Default: 0.95, Min: 0.01, Max: 0.999,
			Help: "inter-arrival quantile the timer is fitted to",
		}},
		NewDemote: func(p Params, tr trace.Trace, _ power.Profile) (DemotePolicy, error) {
			return NewPercentileIAT(tr, p.Float("q")), nil
		},
	})
	mustRegister(&Schema{
		Name: "oracle", Role: RoleDemote,
		Summary:      "clairvoyant upper bound: demote iff the next gap exceeds the threshold (§6.2)",
		GapLookahead: true,
		WaitRule:     true,
		Params: []ParamSpec{{
			Name: "threshold", Kind: KindDuration, Default: time.Duration(0), Min: time.Duration(0),
			Help: "demotion threshold; 0 derives t_threshold from the power profile",
		}},
		NewDemote: func(p Params, _ trace.Trace, prof power.Profile) (DemotePolicy, error) {
			th := p.Duration("threshold")
			if th <= 0 {
				th = energy.Threshold(&prof)
			}
			return NewOracle(th), nil
		},
	})
	mustRegister(&Schema{
		Name: "makeidle", Role: RoleDemote,
		Summary: "the paper's §4 policy: maximize expected gain over a windowed IAT distribution",
		Params: []ParamSpec{
			{Name: "window", Kind: KindInt, Default: 100, Min: 1, Max: 1_000_000,
				Help: "recent inter-arrivals kept in the distribution (Fig. 13's n)"},
			{Name: "gridsteps", Kind: KindInt, Default: 40, Min: 2, Max: 10_000,
				Help: "candidate waits evaluated across [0, t_threshold]"},
			{Name: "minsample", Kind: KindInt, Default: 10, Min: 1, Max: 1_000_000,
				Help: "gaps observed before the policy starts demoting"},
		},
		NewDemote: func(p Params, _ trace.Trace, prof power.Profile) (DemotePolicy, error) {
			return NewMakeIdle(prof,
				WithWindowSize(p.Int("window")),
				WithGridSteps(p.Int("gridsteps")),
				WithMinSample(p.Int("minsample")))
		},
	})

	mustRegister(&Schema{
		Name: "none", Role: RoleActive,
		Summary: "batching disabled: promote on the first packet of every session",
		NewActive: func(Params, trace.Trace, power.Profile) (ActivePolicy, error) {
			return nil, nil
		},
	})
	mustRegister(&Schema{
		Name: "learn", Role: RoleActive,
		Summary: "the §5.2 MakeActive: expert bank over per-second deadlines, Learn-alpha combined",
		Params: []ParamSpec{
			{Name: "maxdelay", Kind: KindDuration, Default: 10 * time.Second,
				Min: time.Second, Max: 10 * time.Minute,
				Help: "largest expert's batching deadline (one expert per whole second)"},
			{Name: "gamma", Kind: KindFloat, Default: 0.008, Min: 1e-6, Max: 10.0,
				Help: "delay vs batching trade-off in the expert loss"},
		},
		NewActive: func(p Params, _ trace.Trace, _ power.Profile) (ActivePolicy, error) {
			return NewLearnedDelay(
				WithMaxDelay(p.Duration("maxdelay")),
				WithGamma(p.Float("gamma"))), nil
		},
	})
	mustRegister(&Schema{
		Name: "fix", Role: RoleActive,
		Summary:     "the §5.1 fixed bound T_fix = k·(t1+t2), fitted to the trace's burst structure",
		TraceFitted: true,
		Params: []ParamSpec{{
			Name: "burstgap", Kind: KindDuration, Default: time.Second,
			Min: time.Millisecond, Max: 10 * time.Minute,
			Help: "burst segmentation gap used to fit k (bursts per active period)",
		}},
		NewActive: func(p Params, tr trace.Trace, prof power.Profile) (ActivePolicy, error) {
			return NewFixedDelay(tr, &prof, p.Duration("burstgap")), nil
		},
	})

	mustAlias := func(role Role, name string, spec Spec) {
		if err := r.Alias(role, name, spec); err != nil {
			panic(err)
		}
	}
	mustAlias(RoleDemote, "4.5s", Spec{Name: "fixedtail", Params: map[string]any{"wait": 4500 * time.Millisecond}})
	mustAlias(RoleDemote, "95iat", Spec{Name: "pctiat", Params: map[string]any{"q": 0.95}})
	return r
}
