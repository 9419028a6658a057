package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMetamorphicTimeShift is an oracle that does not compare the engine
// with itself: the radio's accounting depends only on the gaps between
// packets, so shifting every timestamp of a trace by one constant must
// leave the energy breakdown and the promotion count bit-identical. It
// covers the deployed timers, a fixed tail, MakeIdle and MakeIdle with the
// learning MakeActive on all four carriers, over generated two-hour user
// traces shifted by random offsets of up to 48 hours.
func TestMetamorphicTimeShift(t *testing.T) {
	carriers := []power.Profile{power.TMobile3G, power.ATTHSPAPlus, power.Verizon3G, power.VerizonLTE}
	type scheme struct {
		name  string
		build func(power.Profile) (policy.DemotePolicy, policy.ActivePolicy, error)
	}
	schemes := []scheme{
		{"statusquo", func(power.Profile) (policy.DemotePolicy, policy.ActivePolicy, error) {
			return policy.StatusQuo{}, nil, nil
		}},
		{"fixedtail", func(power.Profile) (policy.DemotePolicy, policy.ActivePolicy, error) {
			return &policy.FixedTail{Wait: 2 * time.Second}, nil, nil
		}},
		{"makeidle", func(p power.Profile) (policy.DemotePolicy, policy.ActivePolicy, error) {
			mi, err := policy.NewMakeIdle(p)
			return mi, nil, err
		}},
		{"makeidle+learn", func(p power.Profile) (policy.DemotePolicy, policy.ActivePolicy, error) {
			mi, err := policy.NewMakeIdle(p)
			return mi, policy.NewLearnedDelay(), err
		}},
	}
	users := workload.Verizon3GUsers()
	rng := rand.New(rand.NewSource(20121210))
	const traces = 8
	for i := 0; i < traces; i++ {
		u := users[rng.Intn(len(users))]
		tr := u.Generate(rng.Int63(), 2*time.Hour)
		shift := time.Duration(rng.Int63n(int64(48 * time.Hour)))
		shifted := make(trace.Trace, len(tr))
		for j, p := range tr {
			p.T += shift
			shifted[j] = p
		}
		for _, prof := range carriers {
			for _, s := range schemes {
				run := func(tr trace.Trace) *Result {
					t.Helper()
					d, a, err := s.build(prof)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Run(tr, prof, d, a, nil)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want, got := run(tr), run(shifted)
				if !sameBits(got.Breakdown, want.Breakdown) || got.Promotions != want.Promotions {
					t.Fatalf("%s trace %d (%d packets) on %s under %s, shifted by %v:\n got %+v, %d promotions\nwant %+v, %d promotions",
						u.Name, i, len(tr), prof.Name, s.name, shift,
						got.Breakdown, got.Promotions, want.Breakdown, want.Promotions)
				}
				if want.TotalJ() <= 0 || math.IsNaN(want.TotalJ()) {
					t.Fatalf("%s on %s under %s: degenerate energy %v", u.Name, prof.Name, s.name, want.TotalJ())
				}
			}
		}
	}
}

// sameBits reports whether two breakdowns agree bit for bit in every
// category (so -0 differs from +0, and a NaN from itself never hides).
func sameBits(a, b energy.Breakdown) bool {
	return math.Float64bits(a.DataJ) == math.Float64bits(b.DataJ) &&
		math.Float64bits(a.T1TailJ) == math.Float64bits(b.T1TailJ) &&
		math.Float64bits(a.T2TailJ) == math.Float64bits(b.T2TailJ) &&
		math.Float64bits(a.SwitchJ) == math.Float64bits(b.SwitchJ)
}

// TestMetamorphicJoinedTraces is a second oracle outside the engine's
// own variants: under a demote policy that keeps no history across an
// idle period, two traces joined by a gap longer than the tail (T1+T2)
// replay as the sum of their separate replays. The radio is Idle by the
// end of the joining gap whatever the policy waits, so the second
// trace's first packet pays the promotion it pays when replayed alone,
// and the demotion that settles the first trace's trailing tail is the
// one the joining gap charges. Both share every other step. Energy
// categories must agree within a relative 1e-9 (the joined replay adds
// the second trace's terms onto the first trace's running sums, the
// separate replays add two finished sums, so float rounding differs);
// promotions, demotions, promoted packets, promotion delay and packet
// counts must agree exactly. It runs every registered demote policy
// without history — StatusQuo, fixedtail at its default and at 1 s, the
// 4.5s alias and the Oracle — on all four carriers over generated user
// traces joined by random gaps.
//
// One mismatch class exists, and the test predicts it rather than
// tolerating it: an Oracle whose threshold is at least the joining gap. After
// the last packet of a trace the Oracle sees no next gap (policy.Never),
// which exceeds any threshold, so a replay that ends there demotes at
// once and charges no trailing tail. Joined, the same Oracle sees the
// finite gap, keeps the radio up, and the timers demote it at the tail
// end: the joined replay charges the first trace's full tail (from the
// end of its last transmission to the tail end) on top of the sum, and
// nothing else changes, since the gap still ends in exactly one
// demotion and one promotion. The built-in carriers' t_threshold values
// (1.1 s to 4.4 s) lie below their tails, so the registered default
// Oracle is additive; oracle(threshold=1h) exercises the class.
func TestMetamorphicJoinedTraces(t *testing.T) {
	carriers := []power.Profile{power.TMobile3G, power.ATTHSPAPlus, power.Verizon3G, power.VerizonLTE}
	specs := []policy.Spec{
		{Name: "statusquo"},
		{Name: "fixedtail"},
		{Name: "fixedtail", Params: map[string]any{"wait": time.Second}},
		{Name: "4.5s"},
		{Name: "oracle"},
	}
	// Longer than every joining gap below (tail + up to one hour).
	lateOracle := policy.Spec{Name: "oracle", Params: map[string]any{"threshold": 2 * time.Hour}}
	specs = append(specs, lateOracle)

	users := append(workload.Verizon3GUsers(), workload.VerizonLTEUsers()...)
	rng := rand.New(rand.NewSource(20121211))
	const pairs = 6
	for i := 0; i < pairs; i++ {
		a := users[rng.Intn(len(users))].Generate(rng.Int63(), time.Hour)
		b := users[rng.Intn(len(users))].Generate(rng.Int63(), time.Hour)
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("pair %d: empty trace", i)
		}
		for _, prof := range carriers {
			gap := prof.Tail() + 1 + time.Duration(rng.Int63n(int64(time.Hour)))
			joined := joinTraces(a, b, gap)
			for _, sp := range specs {
				run := func(tr trace.Trace) *Result {
					t.Helper()
					d, err := policy.Default().BuildDemote(sp, tr, prof)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Run(tr, prof, d, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				ra, rb, got := run(a), run(b), run(joined)
				want := *ra
				want.Breakdown.DataJ += rb.Breakdown.DataJ
				want.Breakdown.T1TailJ += rb.Breakdown.T1TailJ
				want.Breakdown.T2TailJ += rb.Breakdown.T2TailJ
				want.Breakdown.SwitchJ += rb.Breakdown.SwitchJ
				want.Promotions += rb.Promotions
				want.Demotions += rb.Demotions
				want.PromotedPackets += rb.PromotedPackets
				want.PromotionDelayTotal += rb.PromotionDelayTotal
				want.Packets += rb.Packets
				if sp.Name == lateOracle.Name && sp.Params != nil {
					// The mismatch class: the joined replay rides out the
					// first trace's tail before the timers demote.
					last := a[len(a)-1]
					t1J, t2J := energy.TailBreakdown(&prof, prof.Tail()-prof.TxTime(last.Size, last.Dir == trace.Out))
					want.Breakdown.T1TailJ += t1J
					want.Breakdown.T2TailJ += t2J
				}
				label := fmt.Sprintf("pair %d (%d+%d packets) on %s under %v, joined by %v", i, len(a), len(b), prof.Name, sp, gap)
				for _, c := range []struct {
					name      string
					got, want float64
				}{
					{"data", got.Breakdown.DataJ, want.Breakdown.DataJ},
					{"T1 tail", got.Breakdown.T1TailJ, want.Breakdown.T1TailJ},
					{"T2 tail", got.Breakdown.T2TailJ, want.Breakdown.T2TailJ},
					{"switch", got.Breakdown.SwitchJ, want.Breakdown.SwitchJ},
				} {
					if math.Abs(c.got-c.want) > 1e-9*math.Abs(c.want) {
						t.Fatalf("%s: %s energy %v J, separate replays sum to %v J", label, c.name, c.got, c.want)
					}
				}
				if got.Promotions != want.Promotions || got.Demotions != want.Demotions ||
					got.PromotedPackets != want.PromotedPackets || got.PromotionDelayTotal != want.PromotionDelayTotal ||
					got.Packets != want.Packets {
					t.Fatalf("%s: counts %d/%d/%d/%v/%d, separate replays sum to %d/%d/%d/%v/%d (promotions/demotions/promoted packets/delay/packets)",
						label, got.Promotions, got.Demotions, got.PromotedPackets, got.PromotionDelayTotal, got.Packets,
						want.Promotions, want.Demotions, want.PromotedPackets, want.PromotionDelayTotal, want.Packets)
				}
			}
		}
	}
}

// joinTraces appends b to a, shifted so that the gap between a's last
// packet and b's first is exactly gap.
func joinTraces(a, b trace.Trace, gap time.Duration) trace.Trace {
	shift := a[len(a)-1].T + gap - b[0].T
	out := append(make(trace.Trace, 0, len(a)+len(b)), a...)
	for _, p := range b {
		p.T += shift
		out = append(out, p)
	}
	return out
}
