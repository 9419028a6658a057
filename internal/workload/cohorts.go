package workload

import (
	"fmt"
	"time"

	"repro/internal/spec"
)

// This file makes synthetic cohorts a self-describing registry, the third
// experiment axis next to dormancy schemes and carrier profiles: a cohort
// spec names a registered user-mix family and overrides its knobs —
// population size, per-user duration, the diurnal mask, the per-user seed
// stride, and (for the homogeneous "mix" family) per-application weights.
// "study-3g(users=1000,duration=8h)" is a thousand diurnal users cycling
// the paper's Verizon 3G study mixes. The fleet turns a resolved CohortPlan
// into streamed replay jobs; the v4 job fingerprint hashes the canonical
// cohort encoding, so equal cohorts (however spelled) share cache entries.

// CohortPlan is a resolved cohort: everything the fleet needs to expand a
// population into replay jobs.
type CohortPlan struct {
	// Users is the population size; mixes cycle, so any size reuses the
	// family's app blends.
	Users int
	// Duration is the per-user trace length.
	Duration time.Duration
	// Diurnal wraps each user in the day/night activity mask.
	Diurnal bool
	// SeedStride multiplies the per-user seed index (user i draws seed
	// UserSeed(root, i*SeedStride)), so cohorts can be re-drawn against
	// disjoint RNG streams without changing the root seed.
	SeedStride int
	// Mixes are the user blends the population cycles through.
	Mixes []User
}

// mixBuilder is the domain payload of a cohort schema: it turns resolved
// params into the family's user mixes.
type mixBuilder func(p spec.Params) ([]User, error)

// CohortRegistry resolves cohort specs — "study-3g",
// "mix(im=2,email=1,users=500)", … — into CohortPlans.
type CohortRegistry struct {
	reg *spec.Registry
}

// NewCohortRegistry returns an empty cohort registry.
func NewCohortRegistry() *CohortRegistry {
	return &CohortRegistry{reg: spec.NewRegistry("cohort", func(s *spec.Schema) error {
		if _, ok := s.Meta.(mixBuilder); !ok {
			return fmt.Errorf("workload: cohort schema %q has no mix builder", s.Name)
		}
		return nil
	})}
}

// Register adds a cohort schema. params must include the shared population
// knobs (use CohortParams) plus any family-specific ones.
func (r *CohortRegistry) Register(name, summary string, params []spec.ParamSpec, build mixBuilder) error {
	return r.reg.Register(&spec.Schema{Name: name, Summary: summary, Params: params, Meta: build})
}

// Alias maps a legacy flat name to a cohort spec.
func (r *CohortRegistry) Alias(name string, s spec.Spec) error { return r.reg.Alias(name, s) }

// Resolve expands aliases and resolves a spec's parameters against the
// cohort schema.
func (r *CohortRegistry) Resolve(s spec.Spec) (*spec.Schema, spec.Params, error) {
	return r.reg.Resolve(s)
}

// Names lists every accepted cohort name — canonical and alias — sorted.
func (r *CohortRegistry) Names() []string { return r.reg.Names() }

// Aliases lists the registered alias names sorted.
func (r *CohortRegistry) Aliases() []string { return r.reg.Aliases() }

// Schemas lists the registered cohort schemas sorted by name.
func (r *CohortRegistry) Schemas() []*spec.Schema { return r.reg.Schemas() }

// Describe returns the serializable registry view — the payload of the
// GET /v1/workloads discovery endpoint.
func (r *CohortRegistry) Describe() []spec.SchemaInfo { return r.reg.Describe() }

// Usage renders the cohort catalog for CLI error messages.
func (r *CohortRegistry) Usage() string { return r.reg.Usage() }

// Plan resolves a cohort spec into a runnable plan.
func (r *CohortRegistry) Plan(s spec.Spec) (CohortPlan, error) {
	schema, params, err := r.Resolve(s)
	if err != nil {
		return CohortPlan{}, err
	}
	return buildPlan(schema, params)
}

// buildPlan assembles a CohortPlan from a resolved cohort schema.
func buildPlan(schema *spec.Schema, params spec.Params) (CohortPlan, error) {
	mixes, err := schema.Meta.(mixBuilder)(params)
	if err != nil {
		return CohortPlan{}, fmt.Errorf("cohort %q: %w", schema.Name, err)
	}
	return CohortPlan{
		Users:      params.Int("users"),
		Duration:   params.Duration("duration"),
		Diurnal:    params.Bool("diurnal"),
		SeedStride: params.Int("seedstride"),
		Mixes:      mixes,
	}, nil
}

// CohortResolution is one resolution pass over a cohort spec: the runnable
// plan plus both registry encodings (spec.Resolution) — the canonical name
// with every parameter in declaration order, which the v4 job fingerprint
// hashes, and the short label with only the non-default parameters, e.g.
// "study-3g(users=1000)".
type CohortResolution struct {
	Plan      CohortPlan
	Canonical string
	Label     string
}

// Resolution resolves a cohort spec once and returns the full bundle.
func (r *CohortRegistry) Resolution(s spec.Spec) (CohortResolution, error) {
	res, err := r.reg.Resolution(s)
	if err != nil {
		return CohortResolution{}, err
	}
	plan, err := buildPlan(res.Schema, res.Params)
	if err != nil {
		return CohortResolution{}, err
	}
	return CohortResolution{Plan: plan, Canonical: res.Canonical, Label: res.Label}, nil
}

// MaxCohortUsers bounds a single cohort's population: the fleet's
// O(users) job-slice allocation is the admission concern, and this schema
// bound is the job layer's only cap on it.
const MaxCohortUsers = 1_000_000

// CohortParams returns the population knobs every cohort family shares.
// Declared first so canonical encodings lead with the population shape.
func CohortParams() []spec.ParamSpec {
	return []spec.ParamSpec{
		{Name: "users", Kind: spec.KindInt, Default: 100, Min: 1, Max: MaxCohortUsers,
			Help: "population size (mixes cycle through the family's blends)"},
		// Min is 1 ns, not something "sensible": any positive trace length
		// is a well-defined replay (short cohorts are cheap probes and test
		// inputs), so a larger floor would only reject valid work. The Max
		// bounds per-user trace length at admission.
		{Name: "duration", Kind: spec.KindDuration, Default: 4 * time.Hour,
			Min: time.Nanosecond, Max: 30 * 24 * time.Hour,
			Help: "per-user trace length"},
		{Name: "diurnal", Kind: spec.KindBool, Default: true,
			Help: "wrap each user in the day/night activity mask"},
		{Name: "seedstride", Kind: spec.KindInt, Default: 1, Min: 1, Max: 1_000_000,
			Help: "per-user seed index multiplier (disjoint RNG streams per stride)"},
	}
}

// appParams returns one integer weight knob per §6.1 application category,
// in Fig. 9 order. A weight of n runs n concurrent copies of the category
// on every user of the cohort.
func appParams(defaults map[string]int) []spec.ParamSpec {
	out := make([]spec.ParamSpec, 0, len(Apps()))
	for _, a := range Apps() {
		name := canonicalAppParam(a.Name())
		out = append(out, spec.ParamSpec{
			Name: name, Kind: spec.KindInt, Default: defaults[name], Min: 0, Max: 8,
			Help: fmt.Sprintf("concurrent %s instances per user", a.Name()),
		})
	}
	return out
}

// canonicalAppParam lowercases an app category name into its knob name.
func canonicalAppParam(app string) string {
	switch app {
	case "News":
		return "news"
	case "IM":
		return "im"
	case "MicroBlog":
		return "microblog"
	case "Game":
		return "game"
	case "Email":
		return "email"
	case "Social":
		return "social"
	case "Finance":
		return "finance"
	}
	return app
}

// defaultCohorts holds the built-in cohort families; registration cannot
// fail, so errors panic (programming errors caught by any test).
var defaultCohorts = buildDefaultCohorts()

// Cohorts returns the registry of built-in cohort families: the two study
// cohorts (the 3G and LTE participant mixes of Figs. 10-12) and the
// homogeneous weighted "mix" family.
func Cohorts() *CohortRegistry { return defaultCohorts }

func buildDefaultCohorts() *CohortRegistry {
	r := NewCohortRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	fixed := func(users func() []User) mixBuilder {
		return func(spec.Params) ([]User, error) { return users(), nil }
	}
	must(r.Register("study-3g",
		"the six Verizon 3G study mixes (Figs. 10, 12a), cycled across the population",
		CohortParams(), fixed(Verizon3GUsers)))
	must(r.Register("study-lte",
		"the three Verizon LTE study mixes (Figs. 11, 12b), cycled across the population",
		CohortParams(), fixed(VerizonLTEUsers)))
	must(r.Register("mix",
		"homogeneous cohort: every user runs the same weighted blend of the §6.1 app categories",
		append(CohortParams(), appParams(map[string]int{"im": 1, "email": 1, "news": 1})...),
		func(p spec.Params) ([]User, error) {
			var apps []AppModel
			for _, a := range Apps() {
				for i := 0; i < p.Int(canonicalAppParam(a.Name())); i++ {
					apps = append(apps, a)
				}
			}
			if len(apps) == 0 {
				return nil, fmt.Errorf("every app weight is zero; give at least one app a weight")
			}
			return []User{{Name: "mix", Apps: apps}}, nil
		}))
	return r
}
