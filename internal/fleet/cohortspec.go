package fleet

import (
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// CohortSpec is the declarative form of a Cohort: a registered cohort
// family (or alias) with parameter overrides and an optional summary
// label. It is one axis value of the service's grid jobs and serializes
// over the /v1 HTTP API. The root seed is deliberately not part of the
// spec — it is job-level state shared by every grid cell, so the same
// cohort axis replays the identical population in every cell.
type CohortSpec struct {
	// Label keys the cohort in grid cells; empty derives the registry
	// label (canonical name plus non-default parameters, e.g.
	// "study-3g(users=1000)").
	Label string `json:"label,omitempty"`
	// Name is the cohort family or alias name.
	Name string `json:"name"`
	// Params overrides schema parameters (typed values, JSON values, or
	// canonical strings).
	Params map[string]any `json:"params,omitempty"`
}

// Spec returns the underlying spec value.
func (cs CohortSpec) Spec() spec.Spec { return spec.Spec{Name: cs.Name, Params: cs.Params} }

// ResolvedCohort is one resolution pass over a cohort axis value: the
// runnable Cohort, the axis label (the explicit Label, or the
// registry-derived one), and the axis canonical encoding
// ("label|canonicalCohort"), which feeds the v4 job fingerprint: stable
// across alias spelling, param-map ordering and omitted defaults; changed
// by any parameter value or label change.
type ResolvedCohort struct {
	Cohort    Cohort
	Label     string
	Canonical string
}

// ResolveCohort resolves the axis value once and returns the full bundle:
// parameters are coerced and bounds-checked eagerly (so typos and
// out-of-range populations fail before a fleet spins up), the resolved
// plan's mixes, duration, diurnal mask and seed stride carry over, and the
// cohort is rooted at seed. opts applies to every replay of the cohort
// (burst gap, recording).
func ResolveCohort(r *workload.CohortRegistry, cs CohortSpec, seed int64, opts *sim.Options) (ResolvedCohort, error) {
	res, err := r.Resolution(cs.Spec())
	if err != nil {
		return ResolvedCohort{}, err
	}
	label := cs.Label
	if label == "" {
		label = res.Label
	}
	c := Cohort{
		Users:      res.Plan.Users,
		Seed:       seed,
		Duration:   res.Plan.Duration,
		Diurnal:    res.Plan.Diurnal,
		Mixes:      res.Plan.Mixes,
		SeedStride: res.Plan.SeedStride,
		Opts:       opts,
	}
	// The cohort canonical determines the packet streams up to the seed,
	// which is exactly the trace cache's key contract — every cell of this
	// cohort replays the same memoized traffic.
	c.CacheKeyBase = label + "|" + res.Canonical
	// Every field Prepare derives from is final here, so the per-mix
	// source constructors (and small cohorts' per-user cache keys) are
	// built once; every grid cell's Jobs expansion (cells copy the Cohort
	// value) shares them.
	c.Prepare()
	return ResolvedCohort{
		Cohort:    c,
		Label:     label,
		Canonical: c.CacheKeyBase,
	}, nil
}
