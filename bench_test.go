// Benchmark harness: one benchmark per paper table/figure (`experiments
// -list` enumerates them), plus the §6.6 algorithm-overhead measurement and
// ablation benches for the design knobs that docs/architecture.md
// ("MakeIdle's decision cost") describes.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Benches use shorter traces than cmd/experiments so a full sweep stays
// fast; the per-iteration work is the complete experiment computation.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchCfg keeps full-experiment benches tractable.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 1, AppDuration: 30 * time.Minute, UserDuration: time.Hour}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One bench per paper artifact.

func BenchmarkTab1Profiles(b *testing.B)        { benchExperiment(b, "tab1") }
func BenchmarkTab2Profiles(b *testing.B)        { benchExperiment(b, "tab2") }
func BenchmarkFig1EnergyBreakdown(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig3PowerTimeline(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig8EnergyError(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9PerApp(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkFig10Verizon3G(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11VerizonLTE(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12FalseSwitches(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13WindowSweep(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14TwaitTrace(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15Delays(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkFig16LearningCurve(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17Carriers(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18Signaling(b *testing.B)      { benchExperiment(b, "fig18") }
func BenchmarkTab3SessionDelays(b *testing.B)   { benchExperiment(b, "tab3") }

func BenchmarkDormancySensitivity(b *testing.B) { benchExperiment(b, "sens") }
func BenchmarkBaseStationLoad(b *testing.B)     { benchExperiment(b, "bs") }
func BenchmarkDownlinkBuffering(b *testing.B)   { benchExperiment(b, "buf") }
func BenchmarkLifetimeEstimate(b *testing.B)    { benchExperiment(b, "life") }
func BenchmarkFleetExperiment(b *testing.B)     { benchExperiment(b, "fleet") }

// BenchmarkFleetReplay measures the fleet runtime on an N-user synthetic
// cohort: "serial" pins one worker, "sharded" uses every core. The two
// produce identical aggregates (fleet's determinism guarantee), so the
// ratio of their ns/op is the parallel speedup future scale-out PRs track.
func BenchmarkFleetReplay(b *testing.B) {
	cohort := fleet.Cohort{Users: 64, Seed: 1, Duration: 30 * time.Minute, Diurnal: true, Mixes: workload.Verizon3GUsers()}
	jobs := cohort.Jobs(power.Verizon3G, []fleet.Scheme{fleet.MakeIdleScheme()})
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"sharded", 0}, // GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum, err := fleet.RunSummary(jobs, fleet.Options{Workers: bc.workers}, fleet.SummaryConfig{})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Jobs != int64(len(jobs)) {
					b.Fatalf("folded %d/%d jobs", sum.Jobs, len(jobs))
				}
			}
			b.ReportMetric(float64(cohort.Users)*float64(b.N)/b.Elapsed().Seconds(), "users/s")
		})
	}
}

// BenchmarkEngineReuse contrasts the pooled package-level Run against a
// caller-held Engine on the same trace (the allocation-light hot path the
// fleet workers use).
func BenchmarkEngineReuse(b *testing.B) {
	tr := workload.Verizon3GUsers()[0].Generate(1, time.Hour)
	prof := power.Verizon3G
	b.Run("pooled-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(tr, prof, policy.StatusQuo{}, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("held-engine", func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(tr, prof, policy.StatusQuo{}, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAlgorithmOverhead is the §6.6 measurement: the per-packet cost
// of running the control module's two policies on-device — MakeIdle's
// Observe and Decide on every packet, and MakeActive's bookkeeping on
// every new session (a session joins the open batching episode within the
// learner's horizon; otherwise the episode's arrivals are reported and a
// new delay is drawn). The paper measured 1.7-1.9% battery overhead; here
// the equivalent claim is that one decision costs microseconds, orders of
// magnitude below the radio energy it manages.
func BenchmarkAlgorithmOverhead(b *testing.B) {
	prof := power.Verizon3G
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(1, time.Hour)

	mi, err := policy.NewMakeIdle(prof)
	if err != nil {
		b.Fatal(err)
	}
	ma := policy.NewLearnedDelay()
	horizon := ma.MaxDelay()
	const burstGap = time.Second
	var last, start time.Duration
	arrivals := make([]time.Duration, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Replay the trace cyclically with a monotonically advancing clock.
		now := time.Duration(i/len(tr))*(tr.Duration()+time.Minute) + tr[i%len(tr)].T
		gap := now - last
		if i > 0 {
			mi.Observe(gap)
		}
		if i == 0 || gap > burstGap {
			if off := now - start; i > 0 && off <= horizon {
				arrivals = append(arrivals, off)
			} else {
				if i > 0 {
					ma.ObserveEpisode(0, arrivals)
				}
				ma.Delay(now)
				start, arrivals = now, append(arrivals[:0], 0)
			}
		}
		mi.Decide(now)
		last = now
	}
	b.ReportMetric(float64(len(tr)), "packets/trace")
}

// BenchmarkMakeIdleDecision isolates the §4.2 decision (the per-packet
// expected-energy maximization over the wait grid).
func BenchmarkMakeIdleDecision(b *testing.B) {
	for _, n := range []int{10, 50, 100, 400} {
		b.Run(fmt.Sprintf("window=%d", n), func(b *testing.B) {
			mi, err := policy.NewMakeIdle(power.Verizon3G, policy.WithWindowSize(n))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				mi.Observe(time.Duration(i%20) * time.Second / 4)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mi.Observe(time.Duration(i%50) * 100 * time.Millisecond)
				mi.Decide(0)
			}
		})
	}
}

// BenchmarkSimulator measures raw engine throughput (packets/second of
// simulated replay) for the status quo and MakeIdle.
func BenchmarkSimulator(b *testing.B) {
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(1, 2*time.Hour)
	prof := power.Verizon3G

	b.Run("statusquo", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(tr, prof, policy.StatusQuo{}, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tr)), "packets/run")
	})
	b.Run("makeidle", func(b *testing.B) {
		mi, err := policy.NewMakeIdle(prof)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(tr, prof, mi, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tr)), "packets/run")
	})
}

// Ablations (docs/architecture.md, "MakeIdle's decision cost"): how the
// design knobs move the headline result.

// BenchmarkAblationGridSteps sweeps the wait-grid resolution of MakeIdle's
// argmax and reports the savings each setting achieves.
func BenchmarkAblationGridSteps(b *testing.B) {
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(1, time.Hour)
	prof := power.Verizon3G
	sq, err := sim.Run(tr, prof, policy.StatusQuo{}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, steps := range []int{5, 10, 40, 100} {
		b.Run(fmt.Sprintf("grid=%d", steps), func(b *testing.B) {
			mi, err := policy.NewMakeIdle(prof, policy.WithGridSteps(steps))
			if err != nil {
				b.Fatal(err)
			}
			var saved float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(tr, prof, mi, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				saved = 100 * (sq.TotalJ() - r.TotalJ()) / sq.TotalJ()
			}
			b.ReportMetric(saved, "savings%")
		})
	}
}

// BenchmarkAblationGamma sweeps MakeActive's delay/batching trade-off and
// reports the mean session delay each gamma produces.
func BenchmarkAblationGamma(b *testing.B) {
	u := workload.Verizon3GUsers()[3]
	tr := u.Generate(1, time.Hour)
	prof := power.Verizon3G
	for _, gamma := range []float64{0.001, 0.008, 0.05, 0.5} {
		b.Run(fmt.Sprintf("gamma=%g", gamma), func(b *testing.B) {
			var meanDelay float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mi, err := policy.NewMakeIdle(prof)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.Run(tr, prof, mi, policy.NewLearnedDelay(policy.WithGamma(gamma)), nil)
				if err != nil {
					b.Fatal(err)
				}
				var sum time.Duration
				for _, d := range r.BurstDelays {
					sum += d
				}
				if len(r.BurstDelays) > 0 {
					meanDelay = (sum / time.Duration(len(r.BurstDelays))).Seconds()
				}
			}
			b.ReportMetric(meanDelay, "mean-delay-s")
		})
	}
}

// BenchmarkAblationExpectation compares the default strategy expectation
// against the paper's literal E[E_wait_switch] formula (docs/architecture.md,
// "MakeIdle's decision cost"), reporting the savings and FP-driving switch
// ratio of each.
func BenchmarkAblationExpectation(b *testing.B) {
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(1, time.Hour)
	prof := power.Verizon3G
	sq, err := sim.Run(tr, prof, policy.StatusQuo{}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts []policy.MakeIdleOption
	}{
		{"strategy", nil},
		{"paper-literal", []policy.MakeIdleOption{policy.WithPaperExpectation()}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			mi, err := policy.NewMakeIdle(prof, v.opts...)
			if err != nil {
				b.Fatal(err)
			}
			var saved, ratio float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(tr, prof, mi, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				saved = 100 * (sq.TotalJ() - r.TotalJ()) / sq.TotalJ()
				ratio = float64(r.Promotions) / float64(sq.Promotions)
			}
			b.ReportMetric(saved, "savings%")
			b.ReportMetric(ratio, "switch-ratio")
		})
	}
}

// BenchmarkThreshold measures the closed-form t_threshold computation (it
// sits on MakeIdle's constructor path).
func BenchmarkThreshold(b *testing.B) {
	p := power.ATTHSPAPlus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = energy.Threshold(&p)
	}
}

// benchPacketSource synthesizes n packets on demand: 10-packet bursts at
// 25 ms spacing separated by 8 s idle gaps — enough structure to exercise
// burst segmentation and tail accounting. It is the parametric workload
// for the stream-vs-slice memory benchmark (a trace.Source, O(1) state).
type benchPacketSource struct {
	n, i int
	t    time.Duration
}

func (s *benchPacketSource) Next() (trace.Packet, bool, error) {
	if s.i >= s.n {
		return trace.Packet{}, false, nil
	}
	if s.i > 0 {
		if s.i%10 == 0 {
			s.t += 8 * time.Second
		} else {
			s.t += 25 * time.Millisecond
		}
	}
	dir := trace.In
	if s.i%4 == 0 {
		dir = trace.Out
	}
	s.i++
	return trace.Packet{T: s.t, Dir: dir, Size: 900}, true, nil
}

// BenchmarkReplayStreamVsSlice is the O(1)-memory claim of the streaming
// data path, made measurable: the "slice" variant materializes the trace
// and replays it (B/op grows with n); the "stream" variant pulls the same
// packets through sim.RunSource (B/op and allocs/op stay flat from 10k to
// 1M packets — the engine's burst window is the only buffer). Run with
// -benchmem.
func BenchmarkReplayStreamVsSlice(b *testing.B) {
	prof := power.Verizon3G
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("slice/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			e := sim.NewEngine()
			for i := 0; i < b.N; i++ {
				tr, err := trace.Collect(&benchPacketSource{n: n})
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Run(tr, prof, policy.StatusQuo{}, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Packets != n {
					b.Fatalf("replayed %d packets, want %d", res.Packets, n)
				}
			}
		})
		b.Run(fmt.Sprintf("stream/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			e := sim.NewEngine()
			for i := 0; i < b.N; i++ {
				res, err := e.RunSource(&benchPacketSource{n: n}, prof, policy.StatusQuo{}, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Packets != n {
					b.Fatalf("replayed %d packets, want %d", res.Packets, n)
				}
			}
		})
	}
}

// BenchmarkWorkloadStream measures lazy generator emission against
// materialized generation for a day-scale diurnal user: the streamed form
// allocates per burst, not per trace.
func BenchmarkWorkloadStream(b *testing.B) {
	u := workload.DayUser(workload.Verizon3GUsers()[0])
	const day = 24 * time.Hour
	b.Run("generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr := u.Generate(1, day); len(tr) == 0 {
				b.Fatal("empty trace")
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := u.Stream(1, day)
			n := 0
			for {
				_, ok, err := src.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			if n == 0 {
				b.Fatal("empty stream")
			}
		}
	})
}

// BenchmarkTraceCodec measures binary trace round-trip throughput.
func BenchmarkTraceCodec(b *testing.B) {
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(1, time.Hour)
	b.Run("write", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var sink countingWriter
			if err := trace.WriteBinary(&sink, tr); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(sink))
		}
	})
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
