package experiments

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ConfusionFor runs one demote policy over a trace and scores its per-gap
// decisions against the Oracle ground truth (the §6.3 methodology).
func ConfusionFor(tr trace.Trace, prof power.Profile, d policy.DemotePolicy) (metrics.Confusion, error) {
	r, err := sim.Run(tr, prof, d, nil, &sim.Options{RecordDecisions: true})
	if err != nil {
		return metrics.Confusion{}, err
	}
	th := energy.Threshold(&prof)
	return metrics.Score(r.Decisions, th), nil
}

// confusionPolicies are the three §6.3 policies as fleet schemes.
func confusionPolicies() []fleet.Scheme {
	all := fleetSchemes(0)
	return []fleet.Scheme{all[0], all[1], all[2]} // 4.5-second, 95% IAT, MakeIdle
}

// confusionTable renders FP/FN per user for the three §6.3 policies. Each
// (user × policy) decision-recording replay is a fleet job; the Oracle
// scoring runs in the fold and only the confusion counts survive.
func confusionTable(title string, users []workload.User, prof power.Profile, cfg Config) (string, error) {
	traces, seeds := userTraces(users, cfg.Seed, cfg.UserDuration)
	schemes := confusionPolicies()
	opts := &sim.Options{RecordDecisions: true}
	var jobs []fleet.Job
	for t := range traces {
		for _, s := range schemes {
			jobs = append(jobs, sliceJob(traces[t], seeds[t], prof, s, opts))
		}
	}
	th := energy.Threshold(&prof)
	scores := fleet.Accumulator[map[int]metrics.Confusion]{
		New: func() map[int]metrics.Confusion { return map[int]metrics.Confusion{} },
		Fold: func(m map[int]metrics.Confusion, out fleet.Outcome) map[int]metrics.Confusion {
			m[out.Index] = metrics.Score(out.Result.Decisions, th)
			return m
		},
		Merge: func(a, b map[int]metrics.Confusion) map[int]metrics.Confusion {
			for k, v := range b {
				a[k] = v
			}
			return a
		},
	}
	cells, err := fleet.Run(jobs, cfg.fleetOpts(), scores)
	if err != nil {
		return "", fmt.Errorf("%s: %w", title, err)
	}

	t := report.NewTable(title,
		"User", "4.5-sec FP", "4.5-sec FN", "95% IAT FP", "95% IAT FN", "MakeIdle FP", "MakeIdle FN")
	for i, u := range users {
		row := []interface{}{u.Name}
		for j := range schemes {
			c := cells[i*len(schemes)+j]
			row = append(row, c.FalsePositiveRate(), c.FalseNegativeRate())
		}
		t.AddRowf(row...)
	}
	return t.String(), nil
}

// Fig12 regenerates Figure 12: false switches (FP) and missed switches
// (FN) per user, for Verizon 3G and LTE.
func Fig12(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	a, err := confusionTable("Figure 12(a): false/missed switches (%), Verizon 3G",
		workload.Verizon3GUsers(), power.Verizon3G, cfg)
	if err != nil {
		return "", err
	}
	b, err := confusionTable("Figure 12(b): false/missed switches (%), Verizon LTE",
		workload.VerizonLTEUsers(), power.VerizonLTE, cfg)
	if err != nil {
		return "", err
	}
	return a + "\n" + b, nil
}

// WindowSweep computes MakeIdle's FP/FN rates as a function of the sliding
// window size n (Figure 13), one fleet worker per window size.
func WindowSweep(tr trace.Trace, prof power.Profile, sizes []int, fopts fleet.Options) (*report.Table, error) {
	th := energy.Threshold(&prof)
	confusions, err := fleet.Map(len(sizes), fopts,
		func(i int, engine *sim.Engine) (metrics.Confusion, error) {
			mi, err := policy.NewMakeIdle(prof, policy.WithWindowSize(sizes[i]))
			if err != nil {
				return metrics.Confusion{}, err
			}
			r, err := engine.Run(tr, prof, mi, nil, &sim.Options{RecordDecisions: true})
			if err != nil {
				return metrics.Confusion{}, err
			}
			return metrics.Score(r.Decisions, th), nil
		})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 13: MakeIdle FP/FN vs window size n",
		"n", "FP(%)", "FN(%)")
	for i, n := range sizes {
		t.AddRowf(n, confusions[i].FalsePositiveRate(), confusions[i].FalseNegativeRate())
	}
	return t, nil
}

// Fig13 regenerates Figure 13 on the first Verizon 3G user.
func Fig13(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	t, err := WindowSweep(tr, power.Verizon3G, []int{10, 25, 50, 100, 200, 400}, cfg.fleetOpts())
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// TwaitTrajectory runs MakeIdle over a trace and returns the chosen waits
// over time (Figure 14). Gaps where MakeIdle deferred to the timers are
// omitted, as in the paper's plot of dynamic waiting times.
func TwaitTrajectory(tr trace.Trace, prof power.Profile, span time.Duration) (*report.Series, error) {
	mi, err := policy.NewMakeIdle(prof)
	if err != nil {
		return nil, err
	}
	r, err := sim.Run(tr, prof, mi, nil, &sim.Options{RecordDecisions: true})
	if err != nil {
		return nil, err
	}
	s := &report.Series{
		Name:   fmt.Sprintf("t_wait over time (%s)", prof.Name),
		XLabel: "time(s)",
		YLabel: "t_wait(s)",
	}
	for _, d := range r.Decisions {
		if span > 0 && d.At > span {
			break
		}
		if d.Wait == policy.Never {
			continue
		}
		s.Add(d.At.Seconds(), d.Wait.Seconds())
	}
	return s, nil
}

// Fig14 regenerates Figure 14: the first ten minutes of a Verizon 3G
// user's t_wait trajectory.
func Fig14(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	s, err := TwaitTrajectory(tr, power.Verizon3G, 10*time.Minute)
	if err != nil {
		return "", err
	}
	return s.String(), nil
}
