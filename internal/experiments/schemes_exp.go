package experiments

import (
	"fmt"
	"sync"

	"repro/internal/fleet"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig9 regenerates Figure 9: energy saved per application category by each
// of the six schemes, on a 3G profile (T-Mobile, the network of the
// paper's per-application phones). The (app × scheme) matrix fans out
// across the fleet pool.
func Fig9(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	apps := workload.Apps()
	traces := make([]trace.Trace, len(apps))
	seeds := make([]int64, len(apps))
	for i, app := range apps {
		seeds[i] = cfg.Seed + int64(i)
		traces[i] = workload.Generate(app, seeds[i], cfg.AppDuration)
	}
	schemes := fleetSchemes(0)
	jobs := schemeMatrixJobs(traces, seeds, power.TMobile3G, schemes, nil)
	cells, err := fleet.Run(jobs, cfg.fleetOpts(), fleet.Collect())
	if err != nil {
		return "", fmt.Errorf("fig9: %w", err)
	}

	headers := append([]string{"Application"}, SchemeNames()...)
	t := report.NewTable("Figure 9: energy saved per application (%, T-Mobile 3G)", headers...)
	stride := 1 + len(schemes)
	for i, app := range apps {
		_, results := schemeResultsFrom(cells, i*stride, schemes)
		row := []interface{}{app.Name()}
		for _, s := range results {
			row = append(row, s.SavingsPct)
		}
		t.AddRowf(row...)
	}
	return t.String(), nil
}

// perUserTables runs the six schemes for every user of a cohort on the
// fleet and renders the three panels of Figs. 10/11: savings, normalized
// switches, and energy saved per switch.
func perUserTables(title string, users []workload.User, prof power.Profile, cfg Config) (string, error) {
	traces, seeds := userTraces(users, cfg.Seed, cfg.UserDuration)
	schemes := fleetSchemes(0)
	jobs := schemeMatrixJobs(traces, seeds, prof, schemes, nil)
	cells, err := fleet.Run(jobs, cfg.fleetOpts(), fleet.Collect())
	if err != nil {
		return "", fmt.Errorf("%s: %w", title, err)
	}

	headers := append([]string{"User"}, SchemeNames()...)
	savings := report.NewTable(title+" (a) energy saved (%)", headers...)
	switches := report.NewTable(title+" (b) state switches normalized by status quo", headers...)
	perSwitch := report.NewTable(title+" (c) energy saved per state switch (J)", headers...)

	stride := 1 + len(schemes)
	for i, u := range users {
		_, results := schemeResultsFrom(cells, i*stride, schemes)
		rowA := []interface{}{u.Name}
		rowB := []interface{}{u.Name}
		rowC := []interface{}{u.Name}
		for _, s := range results {
			rowA = append(rowA, s.SavingsPct)
			rowB = append(rowB, s.SwitchRatio)
			rowC = append(rowC, s.SavedPerSwitchJ)
		}
		savings.AddRowf(rowA...)
		switches.AddRowf(rowB...)
		perSwitch.AddRowf(rowC...)
	}
	return savings.String() + "\n" + switches.String() + "\n" + perSwitch.String(), nil
}

// Fig10 regenerates Figure 10: per-user results in the Verizon 3G network.
func Fig10(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	return perUserTables("Figure 10: Verizon 3G", workload.Verizon3GUsers(), power.Verizon3G, cfg)
}

// Fig11 regenerates Figure 11: per-user results in the Verizon LTE network.
func Fig11(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	return perUserTables("Figure 11: Verizon LTE", workload.VerizonLTEUsers(), power.VerizonLTE, cfg)
}

// CarrierResults runs the study cohort against one carrier profile and
// averages each scheme's metrics — the computation behind Figs. 17/18.
// prof must be a built-in Table 2 carrier (it resolves by display name).
func CarrierResults(prof power.Profile, cfg Config) (map[string]float64, map[string]float64, error) {
	savings, ratios, err := carrierGrid([]power.Profile{prof}, cfg)
	if err != nil {
		return nil, nil, err
	}
	return savings[prof.Name], ratios[prof.Name], nil
}

// carrierGrid replays the study cohort (the full 3G study mixes,
// stationary, one user per mix) against every carrier profile, as in
// §6.5, as one grid of the six schemes × profs, and returns each
// scheme's mean savings and switch ratio keyed by carrier display name,
// then scheme label. Each cell is an independent fleet run over the
// identical streamed cohort, so results are identical for any worker
// count and byte-identical to the service's grid cells on the same spec.
func carrierGrid(profs []power.Profile, cfg Config) (savings, ratios map[string]map[string]float64, err error) {
	cfg = cfg.withDefaults()
	specs := make([]power.ProfileSpec, len(profs))
	for i, prof := range profs {
		specs[i] = carrierSpec(prof)
	}
	res, err := cfg.runGrid(FleetSchemes(0), specs, []fleet.CohortSpec{{
		Name: "study-3g",
		Params: map[string]any{
			"users":    len(workload.Verizon3GUsers()),
			"duration": cfg.UserDuration.String(),
			"diurnal":  false,
		},
	}})
	if err != nil {
		return nil, nil, err
	}
	savings = map[string]map[string]float64{}
	ratios = map[string]map[string]float64{}
	for _, c := range res.Cells {
		if savings[c.Profile] == nil {
			savings[c.Profile], ratios[c.Profile] = map[string]float64{}, map[string]float64{}
		}
		a := c.Summary.Schemes[c.Scheme]
		savings[c.Profile][c.Scheme] = a.SavingsPct.Mean
		ratios[c.Profile][c.Scheme] = a.SwitchRatio.Mean
	}
	return savings, ratios, nil
}

// carriers lists the four Table 2 profiles in the order the paper's
// cross-carrier figures (17 and 18) use.
var carriers = []power.Profile{power.TMobile3G, power.ATTHSPAPlus, power.Verizon3G, power.VerizonLTE}

// carrierGrids shares the four-carrier grid between the experiments of
// one All() list: Figs. 17 and 18 and the lifetime estimate read the same
// 24 cells, so a sweep of every experiment runs that grid once per Config
// instead of three times. The maps it hands out are read-only. A nil
// *carrierGrids runs the grid on every call, as the exported Fig17,
// Fig18 and LifetimeEstimate do.
type carrierGrids struct {
	mu   sync.Mutex
	done map[Config][2]map[string]map[string]float64 // savings, ratios
}

// get returns carrierGrid(carriers, cfg), from the memo when it holds cfg.
func (g *carrierGrids) get(cfg Config) (savings, ratios map[string]map[string]float64, err error) {
	cfg = cfg.withDefaults()
	if g == nil {
		return carrierGrid(carriers, cfg)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.done[cfg]; ok {
		return r[0], r[1], nil
	}
	if savings, ratios, err = carrierGrid(carriers, cfg); err != nil {
		return nil, nil, err
	}
	if g.done == nil {
		g.done = map[Config][2]map[string]map[string]float64{}
	}
	g.done[cfg] = [2]map[string]map[string]float64{savings, ratios}
	return savings, ratios, nil
}

// Fig17 regenerates Figure 17: mean energy saved per carrier per scheme.
func Fig17(cfg Config) (string, error) { return (*carrierGrids)(nil).fig17(cfg) }

func (g *carrierGrids) fig17(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	headers := append([]string{"Carrier"}, SchemeNames()...)
	t := report.NewTable("Figure 17: energy saved for different carrier parameters (%)", headers...)
	savings, _, err := g.get(cfg)
	if err != nil {
		return "", fmt.Errorf("fig17: %w", err)
	}
	for _, prof := range carriers {
		row := []interface{}{prof.Name}
		for _, k := range schemeOrder(savings[prof.Name]) {
			row = append(row, savings[prof.Name][k])
		}
		t.AddRowf(row...)
	}
	return t.String(), nil
}

// Fig18 regenerates Figure 18: mean state switches normalized by the status
// quo, per carrier per scheme.
func Fig18(cfg Config) (string, error) { return (*carrierGrids)(nil).fig18(cfg) }

func (g *carrierGrids) fig18(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	headers := append([]string{"Carrier"}, SchemeNames()...)
	t := report.NewTable("Figure 18: state switches normalized by status quo", headers...)
	_, ratios, err := g.get(cfg)
	if err != nil {
		return "", fmt.Errorf("fig18: %w", err)
	}
	for _, prof := range carriers {
		row := []interface{}{prof.Name}
		for _, k := range schemeOrder(ratios[prof.Name]) {
			row = append(row, ratios[prof.Name][k])
		}
		t.AddRowf(row...)
	}
	return t.String(), nil
}

// DormancySensitivity re-runs MakeIdle with the fast-dormancy cost modelled
// at 10/20/40/50% of the radio-off energy (§6.1's robustness check), one
// fleet job per (fraction, policy) over a shared trace.
func DormancySensitivity(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	fractions := []float64{0.1, 0.2, 0.4, 0.5}

	mi := fleet.MakeIdleScheme()
	var jobs []fleet.Job
	for _, f := range fractions {
		prof := power.Verizon3G.WithDormancyFraction(f)
		for _, s := range []fleet.Scheme{fleet.StatusQuoScheme(), mi} {
			jobs = append(jobs, sliceJob(tr, 0, prof, s, nil))
		}
	}
	cells, err := fleet.Run(jobs, cfg.fleetOpts(), fleet.Collect())
	if err != nil {
		return "", err
	}

	t := report.NewTable("Sensitivity: MakeIdle savings vs fast-dormancy cost fraction (Verizon 3G, user1)",
		"Fraction", "Savings(%)", "Switches/statusquo")
	for i, f := range fractions {
		_, results := schemeResultsFrom(cells, i*2, []fleet.Scheme{mi})
		t.AddRowf(f, results[0].SavingsPct, results[0].SwitchRatio)
	}
	return t.String(), nil
}
