package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/basestation"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BaseStationLoad explores the paper's §8 future work: the signaling load
// a cell sees as more fast-dormancy-triggering devices attach, and what a
// network-controlled (rate-limited) admission policy does to it. It
// reports, per fleet size, the total and peak per-minute signaling under
// always-grant and under a rate limit, plus the energy cost of the denials.
func BaseStationLoad(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	type combo struct {
		n   int
		adm basestation.AdmissionPolicy
	}
	var combos []combo
	for _, n := range []int{1, 4, 16} {
		combos = append(combos, combo{n, basestation.AlwaysGrant{}},
			combo{n, basestation.RateLimit{MaxPerWindow: 8 * n}})
	}
	results, err := fleet.Map(len(combos), cfg.fleetOpts(),
		func(i int, _ *sim.Engine) (*basestation.Result, error) {
			return cellFleet(cfg, combos[i].n, combos[i].adm)
		})
	if err != nil {
		return "", err
	}

	t := report.NewTable("Base station (future work §8): signaling vs fleet size, Verizon 3G",
		"Devices", "Admission", "Signals", "Peak/min", "Denied", "Energy(J)")
	for i, c := range combos {
		res := results[i]
		t.AddRowf(c.n, res.Admission, res.TotalSignals, res.PeakSignals(),
			res.TotalDenied, res.TotalEnergyJ())
	}
	return t.String(), nil
}

// DownlinkBufferingTrade explores §8's second future-work item: the base
// station buffering incoming traffic for idle phones. Buffering only helps
// traffic the *network* initiates (push notifications: no uplink request
// wakes the radio first), so the workload is clusters of downlink pushes —
// several apps being notified within a couple of seconds — arriving every
// ~40 s. The sweep varies the hold deadline and reports energy saved
// against the unbuffered replay and the delay imposed on pushed packets.
func DownlinkBufferingTrade(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	prof := power.Verizon3G
	tr := PushWorkload(cfg.Seed, cfg.AppDuration)

	t := report.NewTable("Base station (future work §8): downlink buffering, push workload on Verizon 3G",
		"Hold(s)", "Energy(J)", "Saved(%)", "Promotions", "Mean delay(s)", "Max delay(s)")

	mi := func() (policy.DemotePolicy, error) { return policy.NewMakeIdle(prof) }
	holds := []time.Duration{time.Millisecond, // index 0: the unbuffered baseline
		time.Second, 5 * time.Second, 10 * time.Second, 30 * time.Second}
	results, err := fleet.Map(len(holds), cfg.fleetOpts(),
		func(i int, _ *sim.Engine) (*basestation.BufferResult, error) {
			return bufferRun(prof, tr, mi, holds[i])
		})
	if err != nil {
		return "", err
	}
	base := results[0]
	for i, res := range results[1:] {
		d := metrics.Delays(res.Delays)
		saved := 100 * (base.EnergyJ - res.EnergyJ) / base.EnergyJ
		t.AddRowf(holds[i+1].Seconds(), res.EnergyJ, saved, res.Promotions,
			d.Mean.Seconds(), d.Max.Seconds())
	}
	return t.String(), nil
}

// PushWorkload generates network-initiated downlink traffic: clusters of
// 1-4 pushes (~500 B each) within ~2.5 s, clusters ~40 s apart. No uplink
// packet precedes a push, so an idle radio promotes purely to deliver it —
// the case station-side buffering can optimize.
func PushWorkload(seed int64, duration time.Duration) trace.Trace {
	r := rand.New(rand.NewSource(seed))
	var tr trace.Trace
	for t := 20 * time.Second; t < duration; t += 30*time.Second + time.Duration(r.Int63n(int64(20*time.Second))) {
		n := 1 + r.Intn(4)
		for j := 0; j < n; j++ {
			off := time.Duration(float64(j) * (0.4 + float64(r.Float64())) * float64(time.Second))
			tr = append(tr, trace.Packet{T: t + off, Dir: trace.In, Size: 300 + r.Intn(600)})
		}
	}
	tr.Sort()
	return tr
}

func bufferRun(prof power.Profile, tr trace.Trace, mk func() (policy.DemotePolicy, error), hold time.Duration) (*basestation.BufferResult, error) {
	d, err := mk()
	if err != nil {
		return nil, err
	}
	return basestation.DownlinkBuffering(prof, tr, d, basestation.BufferPolicy{Hold: hold})
}

// LifetimeEstimate reproduces the paper's concluding arithmetic: the
// measured per-carrier MakeIdle savings translated into battery-lifetime
// gains on a Nexus-S-class battery, assuming the radio accounts for the
// 2G-vs-3G talk-time difference.
func LifetimeEstimate(cfg Config) (string, error) { return (*carrierGrids)(nil).lifetime(cfg) }

func (g *carrierGrids) lifetime(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	t := report.NewTable("Conclusion estimate: battery lifetime gained (Nexus S class battery)",
		"Carrier", "MakeIdle saved(%)", "Gain(h)", "+MakeActive saved(%)", "Gain(h)")
	b := metrics.NexusS
	// Total draw calibrated to the Nexus S "up to 6h40m on 3G" figure;
	// the radio's share to the 2G/14h vs 3G/6.7h gap.
	totalMW := b.EnergyJ() / (6.7 * 3600) * 1000
	const radioShare = 0.52
	savings, _, err := g.get(cfg)
	if err != nil {
		return "", err
	}
	for _, prof := range carriers {
		mi := savings[prof.Name][SchemeMakeIdle]
		comb := savings[prof.Name][SchemeCombLearn]
		t.AddRowf(prof.Name,
			mi, b.LifetimeGain(totalMW, radioShare, mi).Hours(),
			comb, b.LifetimeGain(totalMW, radioShare, comb).Hours())
	}
	return t.String(), nil
}

// cellFleet simulates n MakeIdle devices with staggered user mixes.
func cellFleet(cfg Config, n int, adm basestation.AdmissionPolicy) (*basestation.Result, error) {
	users := workload.Verizon3GUsers()
	prof := power.Verizon3G
	var devices []basestation.Device
	for i := 0; i < n; i++ {
		u := users[i%len(users)]
		tr := u.Generate(cfg.Seed+int64(i)*104729, cfg.UserDuration)
		mi, err := policy.NewMakeIdle(prof)
		if err != nil {
			return nil, err
		}
		devices = append(devices, basestation.Device{
			Name:   fmt.Sprintf("%s-%d", u.Name, i),
			Trace:  tr,
			Demote: mi,
		})
	}
	return basestation.Simulate(prof, devices, adm, time.Minute)
}
