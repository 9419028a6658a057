package sim

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The Oracle knows every gap before it decides: it demotes at once when
// the gap exceeds t_threshold and otherwise rides the timers. With
// batching off it should therefore never spend more energy than any
// constant dormancy wait, the deployed timers and every fixed tail
// included. These tests check that bound against one RunWaits pass over a
// dense wait grid, and state the one way it can fail.

// waitGrid is 0 to tail+1s in 50 ms steps, plus Never.
func waitGrid(prof power.Profile) []Wait {
	var waits []Wait
	for w := time.Duration(0); w <= prof.Tail()+time.Second; w += 50 * time.Millisecond {
		waits = append(waits, Wait{D: w})
	}
	return append(waits, Wait{D: policy.Never})
}

// oracleAndWaits replays tr under the Oracle and under every wait of the
// grid, and returns the Oracle's energy and the cheapest wait's.
func oracleAndWaits(t testing.TB, tr trace.Trace, prof power.Profile) (oracleJ, bestJ float64, best time.Duration) {
	t.Helper()
	e := NewEngine()
	var or Result
	if err := e.RunSourceInto(&or, tr.Source(), prof, policy.NewOracle(energy.Threshold(&prof)), nil, nil); err != nil {
		t.Fatal(err)
	}
	waits := waitGrid(prof)
	out := make([]Result, len(waits))
	if err := e.RunWaits(tr.Source(), []WaitSet{{prof, waits}}, nil, [][]Result{out}); err != nil {
		t.Fatal(err)
	}
	bestJ, best = out[0].TotalJ(), waits[0].D
	for i := range out {
		if j := out[i].TotalJ(); j < bestJ {
			bestJ, best = j, waits[i].D
		}
	}
	return or.TotalJ(), bestJ, best
}

// TestOracleBoundsConstantWaits: on generated users of both study
// cohorts (three busy hours each) and all four carriers, the Oracle's
// energy is at most every constant wait's, with no tolerance.
func TestOracleBoundsConstantWaits(t *testing.T) {
	users := append(workload.Verizon3GUsers()[:2], workload.VerizonLTEUsers()[:2]...)
	for i, u := range users {
		tr := u.Generate(int64(100+i), 3*time.Hour)
		for _, prof := range carriers {
			oracleJ, bestJ, best := oracleAndWaits(t, tr, prof)
			if oracleJ > bestJ {
				t.Errorf("user %d on %s: Oracle %.9g J above the %v wait's %.9g J", i, prof.Name, oracleJ, best, bestJ)
			}
		}
	}
}

// TestOracleBoundsMakeIdle is the same bound against MakeIdle, a policy
// that picks its wait per gap: with batching off, on generated users of
// both study cohorts and all four carriers, MakeIdle spends at least the
// Oracle's energy, less at most the regret of the one mismatch class
// (oracleRegret). The per-gap argument is the constant waits' one: every
// gap costs its tail plus, when the radio demotes, a switch, and outside
// the class the Oracle's choice is the cheapest any wait can make.
func TestOracleBoundsMakeIdle(t *testing.T) {
	users := append(workload.Verizon3GUsers()[:2], workload.VerizonLTEUsers()[:2]...)
	e := NewEngine()
	for i, u := range users {
		tr := u.Generate(int64(200+i), 3*time.Hour)
		for _, prof := range carriers {
			mi, err := policy.NewMakeIdle(prof)
			if err != nil {
				t.Fatal(err)
			}
			var or, mr Result
			if err := e.RunSourceInto(&or, tr.Source(), prof, policy.NewOracle(energy.Threshold(&prof)), nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := e.RunSourceInto(&mr, tr.Source(), prof, mi, nil, nil); err != nil {
				t.Fatal(err)
			}
			regretJ, gaps := oracleRegret(tr, prof)
			oracleJ, miJ := or.TotalJ(), mr.TotalJ()
			if slack := 1e-12 * (oracleJ + miJ); oracleJ > miJ+regretJ+slack {
				t.Errorf("user %d on %s: Oracle %.12g J above MakeIdle's %.12g J by more than the regret %.3g J of its %d gaps past the threshold",
					i, prof.Name, oracleJ, miJ, regretJ, gaps)
			}
		}
	}
}

// oracleRegret is the most the Oracle can spend above the cheapest
// constant wait on tr: the sum, over the gaps it demotes on (gap >
// threshold), of how much the switch it pays exceeds riding out the
// gap's tail instead. The engine charges a gap's tail from the end of the
// last packet's transmission, gap - lastTx, while the Oracle compares the
// whole gap with the threshold. A gap in (threshold, threshold + lastTx]
// therefore has a tail cheaper than the switch, and only such gaps
// contribute; on every other gap the Oracle's choice is the cheapest any
// wait can make. It also returns how many gaps fall in that class.
func oracleRegret(tr trace.Trace, prof power.Profile) (regretJ float64, gaps int) {
	th := energy.Threshold(&prof)
	eswitch := prof.SwitchJ()
	for i := 1; i < len(tr); i++ {
		gap := tr[i].T - tr[i-1].T
		if gap <= th || gap > prof.Tail() {
			continue
		}
		stay := max(gap-prof.TxTime(tr[i-1].Size, tr[i-1].Dir == trace.Out), 0)
		if tail := energy.TailJ(&prof, stay); tail < eswitch {
			regretJ += eswitch - tail
			gaps++
		}
	}
	return regretJ, gaps
}

// TestOracleRegretClass builds the one mismatch class on purpose: a long
// upload, then a gap half its transmission time past the threshold. The
// Oracle demotes on the whole gap, but the tail it avoids is only gap -
// lastTx, shorter than the threshold and cheaper than the switch, so a
// wait that rides the gap out beats it — by at most the regret
// oracleRegret states, on every carrier. The trace ends with a download
// longer than the tail, so no wait pays a trailing tail.
func TestOracleRegretClass(t *testing.T) {
	for _, prof := range carriers {
		const size = 100_000
		tx := prof.TxTime(size, true)
		last := int((prof.Tail() + time.Second).Seconds() * prof.DownlinkMbps * 1e6 / 8)
		tr := trace.Trace{
			{T: 0, Dir: trace.Out, Size: size},
			{T: energy.Threshold(&prof) + tx/2, Dir: trace.In, Size: last},
		}
		oracleJ, bestJ, _ := oracleAndWaits(t, tr, prof)
		regretJ, gaps := oracleRegret(tr, prof)
		if gaps != 1 || oracleJ <= bestJ {
			t.Fatalf("%s: %d gaps in the class, Oracle %.9g J vs best wait %.9g J; want one gap and the Oracle above",
				prof.Name, gaps, oracleJ, bestJ)
		}
		if over := oracleJ - bestJ; over > regretJ*(1+1e-9) {
			t.Fatalf("%s: Oracle %.3g J above the best wait, more than the regret %.3g J", prof.Name, over, regretJ)
		}
	}
}

// FuzzOracleBound holds the Oracle to the constant-wait grid on arbitrary
// valid traces: its energy may exceed the cheapest wait's only by the
// regret of the gaps in (threshold, threshold + lastTx] (oracleRegret),
// and not at all when no gap falls in that class. Fuzzed traces, unlike
// generated traffic, can place a long transmission right before a gap
// just past the threshold. The bound allows a few ulps of the total for
// the different order in which the two replays sum their energies.
func FuzzOracleBound(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 0x40, 90, 1, 255, 0xc0, 30, 0, 3}, uint8(0))
	f.Add([]byte{0x80, 40, 1, 250, 0x80, 41, 0, 10, 0xc0, 2, 1, 1}, uint8(2))
	f.Add([]byte{0, 1, 0, 1, 0x40, 250, 1, 254, 0x80, 12, 0, 254}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, carrier uint8) {
		prof := carriers[int(carrier)%len(carriers)]
		tr := fuzzTrace(data)
		if tr.Validate() != nil {
			return
		}
		oracleJ, bestJ, best := oracleAndWaits(t, tr, prof)
		regretJ, gaps := oracleRegret(tr, prof)
		slack := 1e-12 * (oracleJ + bestJ)
		if oracleJ > bestJ+regretJ+slack {
			t.Fatalf("%s: Oracle %.12g J above the %v wait's %.12g J by more than the regret %.3g J of its %d gaps past the threshold",
				prof.Name, oracleJ, best, bestJ, regretJ, gaps)
		}
	})
}
