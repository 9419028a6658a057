package power

import "repro/internal/spec"

// ProfileSpec is the declarative form of a carrier profile: a registered
// base schema name (or legacy alias) with parameter overrides and an
// optional summary label. It is one axis value of the service's grid jobs
// and serializes over the /v1 HTTP API.
type ProfileSpec struct {
	// Label keys the profile in grid cells and reports; empty derives the
	// registry label (canonical name plus non-default parameters, e.g.
	// "verizon-lte(t1=5s)").
	Label string `json:"label,omitempty"`
	// Name is the schema or alias name.
	Name string `json:"name"`
	// Params overrides schema parameters (typed values, JSON numbers, or
	// canonical strings).
	Params map[string]any `json:"params,omitempty"`
}

// Spec returns the underlying spec value.
func (ps ProfileSpec) Spec() spec.Spec { return spec.Spec{Name: ps.Name, Params: ps.Params} }

// Profile resolves and builds the validated Profile, named by the axis
// label: the explicit Label, or the registry-derived one.
func (ps ProfileSpec) Profile(r *Registry) (Profile, error) {
	rp, err := ps.Resolution(r)
	return rp.Profile, err
}

// ResolvedProfile is one resolution pass over a profile axis value: the
// runnable Profile (named by the axis label), the label itself, and the
// axis canonical encoding ("label|canonicalProfile"), which feeds the v4
// job fingerprint: stable across alias spelling, param-map ordering and
// omitted defaults; changed by any parameter value or label change.
type ResolvedProfile struct {
	Profile   Profile
	Label     string
	Canonical string
}

// Resolution resolves the axis value once and returns the full bundle.
func (ps ProfileSpec) Resolution(r *Registry) (ResolvedProfile, error) {
	res, err := r.Resolution(ps.Spec())
	if err != nil {
		return ResolvedProfile{}, err
	}
	label := res.Label
	if ps.Label != "" {
		label = ps.Label
		res.Profile.Name = label
	}
	return ResolvedProfile{
		Profile:   res.Profile,
		Label:     label,
		Canonical: label + "|" + res.Canonical,
	}, nil
}
