package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/report"
)

// TailSweep is the registry-era parameter study the paper's §6 implies
// but the fixed scheme list could not express: one diurnal cohort
// replayed under a grid of fixed dormancy tails (the knob Falaki et al.
// pin at 4.5 s) plus MakeIdle, every scheme built from a parameterized
// spec. It is one single-axis grid job, so each scheme is its own cell
// over the identical streamed cohort, rows are directly comparable and
// byte-reproducible at any worker count, and the rendered aggregates are
// the job's in-order merge of its cells — the shape the service's sweep
// jobs use.
func TailSweep(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	specs := []fleet.SchemeSpec{
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": time.Second}}},
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": 2 * time.Second}}},
		{Policy: policy.Spec{Name: "fixedtail"}}, // the paper's 4.5 s default
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": 8 * time.Second}}},
		{Policy: policy.Spec{Name: "makeidle"}},
	}
	prof := power.Verizon3G
	res, err := cfg.runGrid(specs, []power.ProfileSpec{carrierSpec(prof)},
		[]fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{
			"users": cfg.Users, "duration": cfg.UserDuration.String(), "diurnal": true,
		}}})
	if err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Dormancy-tail sweep: %d diurnal users x %d schemes on %s (%s traces)\n",
		cfg.Users, len(specs), prof.Name, cfg.UserDuration)
	t := report.NewTable("per-scheme cohort aggregates (sweep order)",
		"scheme", "energy_mean_j", "savings_pct_mean", "switch_ratio_mean")
	for _, c := range res.Cells {
		a := res.Summary.Schemes[c.Scheme]
		t.AddRowf(c.Scheme, a.Energy.Mean, a.SavingsPct.Mean, a.SwitchRatio.Mean)
	}
	sb.WriteString(t.String())
	return sb.String(), nil
}
