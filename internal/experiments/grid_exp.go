package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/policy"
	"repro/internal/power"
)

// This file is the experiments-layer face of the sweep grid: every
// grid-shaped experiment (the cross-carrier figures 17/18, the tail
// sweep and the grid experiment) is a jobs.Spec run to completion by
// jobs.Run, on the same plan, cell executor and trace cache the service's
// grid jobs use — so each cell's summary is byte-identical to the
// service's cell on the same spec, at any worker count.

// runGrid runs the scheme × profile × cohort grid under the config's
// seed, shards and worker count.
func (c Config) runGrid(schemes []fleet.SchemeSpec, profiles []power.ProfileSpec, cohorts []fleet.CohortSpec) (*jobs.Result, error) {
	return jobs.Run(jobs.Spec{
		Seed:     c.Seed,
		Schemes:  schemes,
		Profiles: profiles,
		Cohorts:  cohorts,
		Shards:   c.Shards,
	}, jobs.Config{Workers: c.Workers})
}

// carrierSpec is the profile axis value of a built-in Table 2 carrier,
// labeled by its display name (a registered alias) as the figures print
// it.
func carrierSpec(prof power.Profile) power.ProfileSpec {
	return power.ProfileSpec{Label: prof.Name, Name: prof.Name}
}

// GridSweep is the registry-era three-axis parameter study: a grid of
// dormancy schemes × carrier profiles (one a parameterized what-if: the
// paper's LTE carrier with its timer halved) × cohort families, every
// axis value a spec resolved against its registry — the §6.5
// cross-carrier question generalized to arbitrary carrier and workload
// hypotheticals, exactly as the service's grid jobs run it.
func GridSweep(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	schemes := []fleet.SchemeSpec{
		{Label: SchemeFourFive, Policy: policy.Spec{Name: "4.5s"}},
		{Label: SchemeMakeIdle, Policy: policy.Spec{Name: "makeidle"}},
	}
	profiles := []power.ProfileSpec{
		{Name: "verizon-3g"},
		{Name: "verizon-lte"},
		{Name: "verizon-lte", Params: map[string]any{"t1": "5s"}},
	}
	dur := cfg.UserDuration.String()
	cohorts := []fleet.CohortSpec{
		{Name: "study-3g", Params: map[string]any{"users": cfg.Users, "duration": dur}},
		{Name: "mix", Params: map[string]any{"users": cfg.Users, "duration": dur, "im": 2, "email": 1}},
	}
	res, err := cfg.runGrid(schemes, profiles, cohorts)
	if err != nil {
		return "", fmt.Errorf("grid: %w", err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Sweep grid: %d schemes x %d profiles x %d cohorts = %d cells (seed %d)\n",
		len(schemes), len(profiles), len(cohorts), len(res.Cells), cfg.Seed)
	sb.WriteString(res.Text())
	return sb.String(), nil
}
