package sim

import (
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
