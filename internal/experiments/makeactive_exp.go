package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DelayComparison runs MakeIdle with both MakeActive variants on one trace
// and returns the batching-delay statistics for each (Figure 15's bars).
func DelayComparison(tr trace.Trace, prof power.Profile) (learn, fixed metrics.DelayStats, err error) {
	miL, err := policy.NewMakeIdle(prof)
	if err != nil {
		return learn, fixed, err
	}
	rl, err := sim.Run(tr, prof, miL, policy.NewLearnedDelay(), nil)
	if err != nil {
		return learn, fixed, err
	}
	miF, err := policy.NewMakeIdle(prof)
	if err != nil {
		return learn, fixed, err
	}
	rf, err := sim.Run(tr, prof, miF, policy.NewFixedDelay(tr, &prof, time.Second), nil)
	if err != nil {
		return learn, fixed, err
	}
	return metrics.Delays(rl.BurstDelays), metrics.Delays(rf.BurstDelays), nil
}

// delayStatsAccumulator folds each outcome's burst delays into exact
// per-job DelayStats and drops the result — nothing else survives.
func delayStatsAccumulator() fleet.Accumulator[map[int]metrics.DelayStats] {
	return fleet.Accumulator[map[int]metrics.DelayStats]{
		New: func() map[int]metrics.DelayStats { return map[int]metrics.DelayStats{} },
		Fold: func(m map[int]metrics.DelayStats, out fleet.Outcome) map[int]metrics.DelayStats {
			m[out.Index] = metrics.Delays(out.Result.BurstDelays)
			return m
		},
		Merge: func(a, b map[int]metrics.DelayStats) map[int]metrics.DelayStats {
			for k, v := range b {
				a[k] = v
			}
			return a
		},
	}
}

// delayTable renders Fig. 15 for one user cohort: one fleet job per
// (user × MakeActive variant).
func delayTable(title string, users []workload.User, prof power.Profile, cfg Config) (string, error) {
	traces, seeds := userTraces(users, cfg.Seed, cfg.UserDuration)
	variants := []fleet.Scheme{
		{Name: "learn", Demote: fleet.MakeIdleScheme().Demote,
			Active: func(trace.Trace, power.Profile) (policy.ActivePolicy, error) {
				return policy.NewLearnedDelay(), nil
			}},
		{Name: "fixed", Demote: fleet.MakeIdleScheme().Demote,
			FitTrace: true, ActiveFit: fleet.FitKey{Spec: "fix|burstgap=1s"},
			Active: func(tr trace.Trace, prof power.Profile) (policy.ActivePolicy, error) {
				return policy.NewFixedDelay(tr, &prof, time.Second), nil
			}},
	}
	var jobs []fleet.Job
	for t := range traces {
		for _, v := range variants {
			jobs = append(jobs, sliceJob(traces[t], seeds[t], prof, v, nil))
		}
	}
	cells, err := fleet.Run(jobs, cfg.fleetOpts(), delayStatsAccumulator())
	if err != nil {
		return "", fmt.Errorf("%s: %w", title, err)
	}

	t := report.NewTable(title,
		"User", "Learning mean(s)", "Learning median(s)", "Fixed mean(s)", "Fixed median(s)")
	for i, u := range users {
		learn, fixed := cells[i*2], cells[i*2+1]
		t.AddRowf(u.Name,
			learn.Mean.Seconds(), learn.Median.Seconds(),
			fixed.Mean.Seconds(), fixed.Median.Seconds())
	}
	return t.String(), nil
}

// Fig15 regenerates Figure 15: mean and median burst delays under the
// learning and fixed-bound MakeActive variants, per user, both networks.
func Fig15(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	a, err := delayTable("Figure 15(a): burst delays, Verizon 3G",
		workload.Verizon3GUsers(), power.Verizon3G, cfg)
	if err != nil {
		return "", err
	}
	b, err := delayTable("Figure 15(b): burst delays, Verizon LTE",
		workload.VerizonLTEUsers(), power.VerizonLTE, cfg)
	if err != nil {
		return "", err
	}
	return a + "\n" + b, nil
}

// LearningCurve runs MakeIdle+LearnedDelay over a trace and returns the
// per-episode learned delay and buffered-burst count (Figure 16).
func LearningCurve(tr trace.Trace, prof power.Profile, maxEpisodes int) (*report.Table, error) {
	mi, err := policy.NewMakeIdle(prof)
	if err != nil {
		return nil, err
	}
	r, err := sim.Run(tr, prof, mi, policy.NewLearnedDelay(), &sim.Options{RecordEpisodes: true})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 16: learned delay and buffered bursts per iteration",
		"Iteration", "Delay(s)", "Buffered bursts")
	for i, ep := range r.EpisodeLog {
		if maxEpisodes > 0 && i >= maxEpisodes {
			break
		}
		t.AddRowf(i+1, ep.Delay.Seconds(), ep.Buffered)
	}
	return t, nil
}

// Fig16 regenerates Figure 16. The paper's dynamic — the learned delay
// falling as buffered bursts accumulate — appears when several sessions
// start close together (multiple apps waking at once, e.g. on a push
// notification), so buffering a couple of seconds batches them all and any
// longer delay is pure cost. ClusteredSessions generates exactly that
// shape: groups of 2-4 bursts within ~2.5 s, groups ~40 s apart.
func Fig16(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	tr := ClusteredSessions(cfg.Seed, cfg.UserDuration)
	t, err := LearningCurve(tr, power.Verizon3G, 30)
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// ClusteredSessions builds the Fig. 16 workload: session groups in which
// 2-4 bursts arrive within a couple of seconds of each other, separated by
// idle stretches long enough for the radio to sleep.
func ClusteredSessions(seed int64, duration time.Duration) trace.Trace {
	r := rand.New(rand.NewSource(seed))
	shape := workload.BurstShape{ReqBytes: 300, RespBytes: 2000, RespJitter: 0.3}
	var tr trace.Trace
	for t := 30 * time.Second; t < duration; t += 35*time.Second + time.Duration(r.Int63n(int64(10*time.Second))) {
		n := 2 + r.Intn(3)
		for j := 0; j < n; j++ {
			off := time.Duration(float64(j) * (0.5 + float64(r.Float64())) * float64(time.Second))
			tr, _ = shape.Emit(r, tr, t+off)
		}
	}
	tr.Sort()
	return tr
}

// Table3 regenerates Table 3: mean and median session delays introduced by
// the combined method, per carrier, pooled over the user cohort. Every
// (carrier × user) replay is a fleet job; delays pool into a mergeable
// stream + histogram per carrier, so no per-user delay list is retained
// (the median is the histogram quantile at 50 ms resolution).
func Table3(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	users := workload.Verizon3GUsers()
	traces, seeds := userTraces(users, cfg.Seed, cfg.UserDuration)

	comb := fleet.CombinedScheme()
	var jobs []fleet.Job
	for _, prof := range carriers {
		comb.Name = prof.Name // one aggregate row per carrier
		for t := range traces {
			jobs = append(jobs, sliceJob(traces[t], seeds[t], prof, comb, nil))
		}
	}
	sum, err := fleet.RunSummary(jobs, cfg.fleetOpts(),
		fleet.SummaryConfig{DelayMaxS: 30, Bins: 600})
	if err != nil {
		return "", fmt.Errorf("tab3: %w", err)
	}

	t := report.NewTable("Table 3: session delays from MakeActive per carrier (seconds)",
		"Network", "Mean Delay", "Median Delay")
	for _, prof := range carriers {
		a := sum.Schemes[prof.Name]
		t.AddRowf(prof.Name, a.BurstDelay.Mean, a.DelayHist.Quantile(0.5))
	}
	return t.String(), nil
}
