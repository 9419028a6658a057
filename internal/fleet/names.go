package fleet

import (
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
)

// Registered active-policy names the scheme helpers special-case: "none"
// (no batching, the default) and "fix" (the trace-fitted MakeActive that
// inherits the session burst gap).
const (
	ActiveNone = "none"
	ActiveFix  = "fix"
)

// SchemeSpec is the declarative form of a Scheme: a demote policy spec,
// an optional batching policy spec, and a summary label. It is the unit
// of the service's sweep jobs — one job carries a list of SchemeSpecs —
// and serializes over the /v1 HTTP API.
type SchemeSpec struct {
	// Label keys the scheme in summaries; empty derives
	// "demoteLabel[+activeLabel]" from the resolved specs (only
	// non-default parameters appear, so "fixedtail(wait=2s)" and plain
	// "fixedtail" stay distinct).
	Label string `json:"label,omitempty"`
	// Policy is the demote policy spec.
	Policy policy.Spec `json:"policy"`
	// Active is the batching policy spec; nil means "none".
	Active *policy.Spec `json:"active,omitempty"`
}

// activeSpec returns the effective active spec ("none" when unset).
func (ss SchemeSpec) activeSpec() policy.Spec {
	if ss.Active == nil {
		return policy.Spec{Name: ActiveNone}
	}
	return *ss.Active
}

// ResolvedScheme is one resolution pass over a scheme axis value: the
// runnable Scheme (named by the axis label), the label itself (the
// explicit Label, or "demoteLabel[+activeLabel]"), and the axis canonical
// encoding ("label|demoteCanonical|activeCanonical"), which feeds the v4
// job fingerprint: stable across param-map ordering, alias spelling and
// omitted defaults; changed by any parameter value or label change.
type ResolvedScheme struct {
	Scheme    Scheme
	Label     string
	Canonical string
}

// ResolveScheme resolves a SchemeSpec against a registry in one pass per
// role: parameters are coerced and bounds-checked eagerly (so typos and
// out-of-range sweeps fail before a fleet spins up), FitTrace, WaitRule
// and the fit keys are derived from the schemas' capabilities instead of
// being hand-set, and the policy factories close over the resolved
// parameters.
func ResolveScheme(reg *policy.Registry, ss SchemeSpec) (ResolvedScheme, error) {
	d, err := reg.Resolution(policy.RoleDemote, ss.Policy)
	if err != nil {
		return ResolvedScheme{}, err
	}
	a, err := reg.Resolution(policy.RoleActive, ss.activeSpec())
	if err != nil {
		return ResolvedScheme{}, err
	}
	label := ss.Label
	if label == "" {
		label = d.Label
		if a.Schema.Name != ActiveNone {
			label += "+" + a.Label
		}
	}
	s := Scheme{
		Name: label,
		Demote: func(tr trace.Trace, prof power.Profile) (policy.DemotePolicy, error) {
			return d.Schema.NewDemote(d.Params, tr, prof)
		},
		FitTrace: d.Schema.TraceFitted || a.Schema.TraceFitted,
		WaitRule: d.Schema.WaitRule,
	}
	if a.Schema.Name != ActiveNone {
		s.Active = func(tr trace.Trace, prof power.Profile) (policy.ActivePolicy, error) {
			return a.Schema.NewActive(a.Params, tr, prof)
		}
	}
	// Registry-built factories are pure functions of the canonical spec,
	// the fit trace and the profile, so every registry scheme advertises a
	// policy reuse key for its non-fitted halves, and each trace-fitted
	// half its own fit key: the role's canonical spec, profile-free when
	// the schema says its builder ignores the profile.
	s.PolicyKey = d.Canonical + "|" + a.Canonical
	if d.Schema.TraceFitted {
		s.DemoteFit = FitKey{Spec: d.Canonical, ProfileFree: d.Schema.FitIgnoresProfile}
	}
	if a.Schema.TraceFitted {
		s.ActiveFit = FitKey{Spec: a.Canonical, ProfileFree: a.Schema.FitIgnoresProfile}
	}
	return ResolvedScheme{
		Scheme:    s,
		Label:     label,
		Canonical: label + "|" + d.Canonical + "|" + a.Canonical,
	}, nil
}

// WithFixBurstGap injects a session-level burst gap into an active spec
// that names the trace-fitted "fix" policy without pinning its own
// burstgap parameter. Every surface that carries a job/CLI burst-gap knob
// (rrcsim's -burstgap flag, jobs.Spec.BurstGap) threads it through this
// one helper, so the inheritance rule cannot drift between surfaces. The
// caller's param map is copied, never mutated.
func WithFixBurstGap(spec policy.Spec, burstGap time.Duration) policy.Spec {
	if spec.Name != ActiveFix || burstGap <= 0 {
		return spec
	}
	if _, ok := spec.Params["burstgap"]; ok {
		return spec
	}
	params := map[string]any{"burstgap": burstGap}
	//rrclint:ordered map-to-map copy; the copied params map is itself unordered, no order reaches bytes
	for k, v := range spec.Params {
		params[k] = v
	}
	spec.Params = params
	return spec
}
