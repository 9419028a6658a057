// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from the synthetic workload substrate. Each experiment is
// a pure function of a Config (seed + durations), returns renderable
// output, and is registered in All so cmd/experiments and the benchmark
// harness can enumerate them.
//
// The correspondence between experiment IDs, paper artifacts and source
// files is tabulated in docs/architecture.md ("Experiments and the
// paper's artifacts"), next to the substitutions the workloads and Fig. 8
// make for the paper's measurements.
package experiments

import (
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes a run. The zero value is usable: DefaultConfig
// values are substituted for unset fields.
type Config struct {
	// Seed drives every generator; equal seeds give identical output.
	Seed int64
	// AppDuration is the length of per-application traces (Fig. 1, 9).
	AppDuration time.Duration
	// UserDuration is the length of per-user traces (Figs. 10-18).
	UserDuration time.Duration
	// Users is the cohort size of the fleet-scale replay experiment
	// (default 24; the CLI raises it into the thousands).
	Users int
	// Workers bounds the fleet's replay goroutines (0 = GOMAXPROCS;
	// 1 = serial). Worker count never changes results.
	Workers int
	// Shards is the fleet's aggregate partition count (0 = the fixed
	// fleet.DefaultShards, so defaults reproduce across machines).
	Shards int
}

// DefaultConfig mirrors the paper's 2-hour application traces and uses
// 4-hour user traces (long enough for stable statistics, short enough for
// quick regeneration; the CLI can raise it).
func DefaultConfig() Config {
	return Config{Seed: 1, AppDuration: 2 * time.Hour, UserDuration: 4 * time.Hour, Users: 24}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.AppDuration <= 0 {
		c.AppDuration = d.AppDuration
	}
	if c.UserDuration <= 0 {
		c.UserDuration = d.UserDuration
	}
	if c.Users <= 0 {
		c.Users = d.Users
	}
	return c
}

// fleetOpts maps the config's parallelism knobs onto the runtime's.
func (c Config) fleetOpts() fleet.Options {
	return fleet.Options{Workers: c.Workers, Shards: c.Shards}
}

// Experiment couples an ID (the paper artifact it regenerates) with its
// driver. Run returns human-readable output (tables/series rendered as
// text).
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (string, error)
}

// All lists every experiment in paper order. The cross-carrier
// experiments of one list share one carrier grid per Config
// (carrierGrids).
func All() []Experiment {
	grids := new(carrierGrids)
	return []Experiment{
		{"tab1", "Table 1: send/receive power", Table1},
		{"tab2", "Table 2: power and inactivity timers", Table2},
		{"fig1", "Figure 1: energy by radio state per application", Fig1},
		{"fig3", "Figure 3: power timeline across a state-switch cycle", Fig3},
		{"fig8", "Figure 8: simulation energy error", Fig8},
		{"fig9", "Figure 9: energy savings per application", Fig9},
		{"fig10", "Figure 10: per-user results, Verizon 3G", Fig10},
		{"fig11", "Figure 11: per-user results, Verizon LTE", Fig11},
		{"fig12", "Figure 12: false and missed switches", Fig12},
		{"fig13", "Figure 13: FP/FN vs window size", Fig13},
		{"fig14", "Figure 14: t_wait trajectory", Fig14},
		{"fig15", "Figure 15: burst delays, learning vs fixed", Fig15},
		{"fig16", "Figure 16: learned delay vs iteration", Fig16},
		{"fig17", "Figure 17: energy saved per carrier", grids.fig17},
		{"fig18", "Figure 18: state switches per carrier", grids.fig18},
		{"tab3", "Table 3: session delays per carrier", Table3},
		{"sens", "Sensitivity: fast-dormancy cost fraction", DormancySensitivity},
		{"bs", "Extension (§8): base-station signaling load", BaseStationLoad},
		{"buf", "Extension (§8): base-station downlink buffering", DownlinkBufferingTrade},
		{"life", "Conclusion: battery lifetime estimate", grids.lifetime},
		{"fleet", "Extension: sharded fleet replay of a diurnal cohort", FleetReplay},
		{"sweep", "Extension: dormancy-tail parameter sweep via policy specs", TailSweep},
		{"grid", "Extension: scheme × profile × cohort sweep grid via the registries", GridSweep},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Scheme names, in the order the paper's figure legends use.
const (
	SchemeFourFive  = "4.5-second"
	Scheme95IAT     = "95% IAT"
	SchemeMakeIdle  = "MakeIdle"
	SchemeOracle    = "Oracle"
	SchemeCombLearn = "MakeIdle+MakeActive Learn"
	SchemeCombFix   = "MakeIdle+MakeActive Fix"
	SchemeStatusQuo = "StatusQuo"
)

// SchemeNames lists the six evaluated schemes (status quo is the baseline,
// not a scheme).
func SchemeNames() []string {
	return []string{
		SchemeFourFive, Scheme95IAT, SchemeMakeIdle, SchemeOracle,
		SchemeCombLearn, SchemeCombFix,
	}
}

// SchemeResult is one scheme's outcome on one trace, with the status-quo
// relative metrics the figures plot.
type SchemeResult struct {
	Scheme          string
	Result          *sim.Result
	SavingsPct      float64
	SwitchRatio     float64
	SavedPerSwitchJ float64
}

// FleetSchemes returns the six evaluated schemes as scheme specs (the
// specs the CLI flags and the /v1 HTTP API resolve), in figure-legend
// order, with the paper's figure-legend labels. burstGap parameterizes
// the trace-fitted MakeActive bound (<= 0 means the simulator's 1 s
// default).
func FleetSchemes(burstGap time.Duration) []fleet.SchemeSpec {
	if burstGap <= 0 {
		burstGap = time.Second
	}
	demote := func(label, name string) fleet.SchemeSpec {
		return fleet.SchemeSpec{Label: label, Policy: policy.Spec{Name: name}}
	}
	combined := func(label, active string, params map[string]any) fleet.SchemeSpec {
		ss := demote(label, "makeidle")
		ss.Active = &policy.Spec{Name: active, Params: params}
		return ss
	}
	return []fleet.SchemeSpec{
		demote(SchemeFourFive, "4.5s"),
		demote(Scheme95IAT, "95iat"),
		demote(SchemeMakeIdle, "makeidle"),
		demote(SchemeOracle, "oracle"),
		combined(SchemeCombLearn, "learn", nil),
		combined(SchemeCombFix, "fix", map[string]any{"burstgap": burstGap}),
	}
}

// fleetSchemes resolves FleetSchemes through the policy registry, for the
// experiments that replay materialized traces scheme by scheme.
func fleetSchemes(burstGap time.Duration) []fleet.Scheme {
	specs := FleetSchemes(burstGap)
	schemes := make([]fleet.Scheme, len(specs))
	for i, ss := range specs {
		rs, err := fleet.ResolveScheme(policy.Default(), ss)
		if err != nil {
			panic(err) // impossible: the built-in registry resolves its own names
		}
		schemes[i] = rs.Scheme
	}
	return schemes
}

// statusQuoScheme is the baseline as a scheme row (always job 0 of a
// scheme-matrix cell, so relative metrics pair against it).
func statusQuoScheme() fleet.Scheme { return fleet.StatusQuoScheme() }

// sliceJob is a fleet job replaying the materialized trace tr under scheme
// s: every pass opens a fresh cursor over the shared slice (replays only
// read it), so a trace is generated once however many schemes replay it —
// these experiment cohorts are small enough to hold, unlike the streamed
// fleet cohorts.
func sliceJob(tr trace.Trace, seed int64, prof power.Profile, s fleet.Scheme, opts *sim.Options) fleet.Job {
	return fleet.Job{
		Seed:      seed,
		Source:    func(int64) trace.Source { return tr.Source() },
		Profile:   prof,
		Scheme:    s.Name,
		Demote:    s.Demote,
		Active:    s.Active,
		Opts:      opts,
		PolicyKey: s.PolicyKey,
		DemoteFit: s.DemoteFit,
		ActiveFit: s.ActiveFit,
	}
}

// schemeMatrixJobs expands (traces × [statusquo + schemes]) into fleet jobs
// in trace-major order: jobs[t*(1+len(schemes))] is trace t's status quo.
func schemeMatrixJobs(traces []trace.Trace, seeds []int64, prof power.Profile, schemes []fleet.Scheme, opts *sim.Options) []fleet.Job {
	rows := append([]fleet.Scheme{statusQuoScheme()}, schemes...)
	jobs := make([]fleet.Job, 0, len(traces)*len(rows))
	for t := range traces {
		for _, s := range rows {
			jobs = append(jobs, sliceJob(traces[t], seeds[t], prof, s, opts))
		}
	}
	return jobs
}

// schemeResultsFrom pairs a trace's collected outcomes against its status
// quo (job base) and builds the relative SchemeResults in scheme order.
func schemeResultsFrom(cells map[int]fleet.Outcome, base int, schemes []fleet.Scheme) (*sim.Result, []SchemeResult) {
	statusQuo := cells[base].Result
	results := make([]SchemeResult, 0, len(schemes))
	for j, s := range schemes {
		r := cells[base+1+j].Result
		results = append(results, SchemeResult{
			Scheme:          s.Name,
			Result:          r,
			SavingsPct:      metrics.SavingsPercent(statusQuo, r),
			SwitchRatio:     metrics.SwitchRatio(statusQuo, r),
			SavedPerSwitchJ: metrics.EnergySavedPerSwitchJ(statusQuo, r),
		})
	}
	return statusQuo, results
}

// RunSchemes evaluates the six schemes (plus the status-quo baseline,
// returned first) on a trace under a profile. Options are applied to every
// run. The seven replays fan out across the fleet pool.
func RunSchemes(tr trace.Trace, prof power.Profile, opts *sim.Options) (*sim.Result, []SchemeResult, error) {
	return runSchemesFleet(tr, prof, opts, fleet.Options{})
}

func runSchemesFleet(tr trace.Trace, prof power.Profile, opts *sim.Options, fopts fleet.Options) (*sim.Result, []SchemeResult, error) {
	bg := time.Duration(0)
	if opts != nil {
		bg = opts.BurstGap
	}
	schemes := fleetSchemes(bg)
	rows := append([]fleet.Scheme{statusQuoScheme()}, schemes...)
	jobs := make([]fleet.Job, 0, len(rows))
	for _, s := range rows {
		jobs = append(jobs, sliceJob(tr, 0, prof, s, opts))
	}
	cells, err := fleet.Run(jobs, fopts, fleet.Collect())
	if err != nil {
		return nil, nil, err
	}
	statusQuo, results := schemeResultsFrom(cells, 0, schemes)
	return statusQuo, results, nil
}

// userTraces generates the per-user traces and seeds for a cohort (sharing
// the per-user seed spacing the figures have always used).
func userTraces(users []workload.User, seed int64, d time.Duration) (traces []trace.Trace, seeds []int64) {
	traces = make([]trace.Trace, len(users))
	seeds = make([]int64, len(users))
	for i, u := range users {
		seeds[i] = seed + int64(i)*7919
		traces[i] = u.Generate(seeds[i], d)
	}
	return traces, seeds
}

// sortedKeys returns map keys in SchemeNames order, then alphabetical for
// any extras.
func schemeOrder(m map[string]float64) []string {
	var keys []string
	seen := map[string]bool{}
	for _, k := range SchemeNames() {
		if _, ok := m[k]; ok {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	var rest []string
	for k := range m {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	return append(keys, rest...)
}
