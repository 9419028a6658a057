package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
)

// FleetReplay is the fleet-scale extension: it replays a whole synthetic
// population — cfg.Users diurnal users, mixes cycled from the study cohort —
// under MakeIdle and the combined method, reducing into mergeable
// streaming aggregates. It is one single-axis grid job (two scheme cells
// over the study-3g cohort on Verizon 3G), so it shares the service's
// trace cache and memos, and no per-user result is retained: a cell's
// live state is one accumulator per shard plus one engine per worker,
// which is what lets the same code path scale to millions of users. Same
// seed, any worker count: identical numbers.
func FleetReplay(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	schemes := []fleet.SchemeSpec{
		{Label: SchemeMakeIdle, Policy: policy.Spec{Name: "makeidle"}},
		{Label: SchemeCombLearn, Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: "learn"}},
	}
	prof := power.Verizon3G
	res, err := cfg.runGrid(schemes, []power.ProfileSpec{{Name: "verizon-3g"}},
		[]fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{
			"users": cfg.Users, "duration": cfg.UserDuration.String(), "diurnal": true,
		}}})
	if err != nil {
		return "", fmt.Errorf("fleet: %w", err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet replay: %d diurnal users x %d schemes on %s (%s traces)\n",
		cfg.Users, len(schemes), prof.Name, cfg.UserDuration)
	sb.WriteString(res.Summary.String())
	// The histogram has the job's fixed layout (fleet.SummaryConfig's
	// defaults), the one every grid cell shares.
	if mi := res.Summary.Schemes[SchemeMakeIdle]; mi != nil && mi.EnergyHist.Count() > 0 {
		sb.WriteString("\nper-user energy distribution, MakeIdle (J):\n")
		sb.WriteString(mi.EnergyHist.String())
	}
	return sb.String(), nil
}
