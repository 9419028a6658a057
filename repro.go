// Package repro is a reproduction of "Traffic-Aware Techniques to Reduce
// 3G/LTE Wireless Energy Consumption" (Deng & Balakrishnan, CoNEXT 2012):
// a library for simulating cellular RRC energy behaviour and for running
// the paper's two traffic-aware control algorithms, MakeIdle and
// MakeActive, against packet traces.
//
// This root package is a thin facade over the implementation packages in
// internal/, re-exporting the user-facing API so downstream code needs a
// single import:
//
//	tr := repro.GenerateApp(repro.Email(), 1, 2*time.Hour)
//	mi, _ := repro.NewMakeIdle(repro.Verizon3G())
//	res, _ := repro.Simulate(tr, repro.Verizon3G(), mi, repro.NewLearnedDelay(), nil)
//	fmt.Printf("energy: %.1f J, switches: %d\n", res.TotalJ(), res.Promotions)
//
// The layering underneath (one package per subsystem; see "Layering" in
// docs/architecture.md):
//
//	internal/trace      packet traces, bursts, codecs
//	internal/power      carrier power/timer profiles (Tables 1-2)
//	internal/energy     E(t), tail energy, t_threshold (§4.1)
//	internal/rrc        the RRC state machine (Fig. 2)
//	internal/experts    fixed-share + Learn-alpha online learning
//	internal/policy     MakeIdle, MakeActive and the baselines
//	internal/sim        the trace-driven simulator (§6)
//	internal/metrics    savings, switch ratios, FP/FN, delay stats
//	internal/workload   synthetic app/user workload generators
//	internal/experiments  one driver per paper figure/table
package repro

import (
	"time"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core data types.
type (
	// Trace is a time-ordered packet trace.
	Trace = trace.Trace
	// Packet is one packet: offset, direction, size.
	Packet = trace.Packet
	// Direction is packet direction (In/Out).
	Direction = trace.Direction
	// Profile describes a carrier/device power model (Table 2 row).
	Profile = power.Profile
	// Result is a simulation outcome.
	Result = sim.Result
	// Options tunes a simulation run.
	Options = sim.Options
	// DemotePolicy decides Active->Idle transitions (MakeIdle side).
	DemotePolicy = policy.DemotePolicy
	// ActivePolicy decides Idle->Active batching (MakeActive side).
	ActivePolicy = policy.ActivePolicy
	// AppModel generates one application category's traffic.
	AppModel = workload.AppModel
	// User is a named mix of applications.
	User = workload.User
	// Confusion holds false/missed switch counts (§6.3).
	Confusion = metrics.Confusion
	// DelayStats summarises batching delays (§6.4).
	DelayStats = metrics.DelayStats
)

// Packet directions.
const (
	Out = trace.Out
	In  = trace.In
)

// Carrier profiles measured in the paper (Table 2).
func TMobile3G() Profile   { return power.TMobile3G }
func ATTHSPAPlus() Profile { return power.ATTHSPAPlus }
func Verizon3G() Profile   { return power.Verizon3G }
func VerizonLTE() Profile  { return power.VerizonLTE }

// Threshold computes t_threshold for a profile (§4.1): the gap length
// beyond which fast dormancy beats riding the inactivity timers.
func Threshold(p Profile) time.Duration { return energy.Threshold(&p) }

// NewMakeIdle builds the paper's MakeIdle policy (§4) for a profile.
func NewMakeIdle(p Profile, opts ...policy.MakeIdleOption) (*policy.MakeIdle, error) {
	return policy.NewMakeIdle(p, opts...)
}

// NewLearnedDelay builds the learning MakeActive policy (§5.2).
func NewLearnedDelay(opts ...policy.LearnedDelayOption) *policy.LearnedDelay {
	return policy.NewLearnedDelay(opts...)
}

// NewFixedDelay builds the fixed-bound MakeActive policy (§5.1), deriving
// T_fix from the trace's burst structure.
func NewFixedDelay(tr Trace, p Profile, burstGap time.Duration) *policy.FixedDelay {
	return policy.NewFixedDelay(tr, &p, burstGap)
}

// StatusQuo returns the deployed timer-only behaviour.
func StatusQuo() DemotePolicy { return policy.StatusQuo{} }

// NewOracle returns the clairvoyant upper-bound policy for a profile.
func NewOracle(p Profile) DemotePolicy { return policy.NewOracle(energy.Threshold(&p)) }

// NewFourPointFive returns the 4.5-second-tail baseline.
func NewFourPointFive() DemotePolicy { return policy.NewFourPointFive() }

// NewPercentileIAT returns the 95%-IAT-style baseline for a trace.
func NewPercentileIAT(tr Trace, q float64) DemotePolicy { return policy.NewPercentileIAT(tr, q) }

// Simulate replays a trace under the policies and returns the accounting.
func Simulate(tr Trace, p Profile, demote DemotePolicy, active ActivePolicy, opts *Options) (*Result, error) {
	return sim.Run(tr, p, demote, active, opts)
}

// SavingsPercent compares a candidate run against a status-quo run.
func SavingsPercent(statusQuo, candidate *Result) float64 {
	return metrics.SavingsPercent(statusQuo, candidate)
}

// SwitchRatio returns candidate promotions / status-quo promotions.
func SwitchRatio(statusQuo, candidate *Result) float64 {
	return metrics.SwitchRatio(statusQuo, candidate)
}

// Delays summarises a batching-delay sample.
func Delays(sample []time.Duration) DelayStats { return metrics.Delays(sample) }

// The seven §6.1 application categories.
func News() AppModel      { return workload.News() }
func IM() AppModel        { return workload.IM() }
func MicroBlog() AppModel { return workload.MicroBlog() }
func Game() AppModel      { return workload.Game() }
func Email() AppModel     { return workload.Email() }
func Social() AppModel    { return workload.Social() }
func Finance() AppModel   { return workload.Finance() }

// Apps returns all seven categories.
func Apps() []AppModel { return workload.Apps() }

// GenerateApp produces a deterministic synthetic trace for one category.
func GenerateApp(m AppModel, seed int64, duration time.Duration) Trace {
	return workload.Generate(m, seed, duration)
}

// Verizon3GUsers and VerizonLTEUsers return the synthetic study cohorts.
func Verizon3GUsers() []User  { return workload.Verizon3GUsers() }
func VerizonLTEUsers() []User { return workload.VerizonLTEUsers() }

// NewEngine returns a reusable allocation-light replay engine (one per
// goroutine) for callers replaying many traces.
func NewEngine() *sim.Engine { return sim.NewEngine() }
