package metrics

import (
	"math"
	"sort"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
)

// SavingsPercent returns the energy saved by a policy run relative to a
// status-quo run, in percent (negative when the policy uses more energy).
// A zero-energy baseline yields 0.
func SavingsPercent(statusQuo, candidate *sim.Result) float64 {
	return SavingsPercentJ(statusQuo.TotalJ(), candidate.TotalJ())
}

// SavingsPercentJ is SavingsPercent over the two runs' total energies, for
// callers that keep only the baseline's scalars.
func SavingsPercentJ(statusQuoJ, candidateJ float64) float64 {
	if statusQuoJ == 0 {
		return 0
	}
	return 100 * (statusQuoJ - candidateJ) / statusQuoJ
}

// SwitchRatio returns the candidate's Idle->Active switch count divided by
// the status quo's (Figs. 10b, 11b, 18). A zero baseline yields 0.
func SwitchRatio(statusQuo, candidate *sim.Result) float64 {
	return SwitchRatioN(statusQuo.Promotions, candidate.Promotions)
}

// SwitchRatioN is SwitchRatio over the two runs' promotion counts.
func SwitchRatioN(statusQuo, candidate int) float64 {
	if statusQuo == 0 {
		return 0
	}
	return float64(candidate) / float64(statusQuo)
}

// EnergySavedPerSwitchJ returns joules saved per state switch performed
// (Figs. 10c, 11c): total savings divided by the candidate's promotions.
func EnergySavedPerSwitchJ(statusQuo, candidate *sim.Result) float64 {
	if candidate.Promotions == 0 {
		return 0
	}
	saved := statusQuo.TotalJ() - candidate.TotalJ()
	return saved / float64(candidate.Promotions)
}

// Confusion holds the false/missed switch rates of §6.3.
type Confusion struct {
	// FalsePositives counts gaps where the policy demoted but the Oracle
	// would not have; TrueNegatives where both kept the radio up.
	FalsePositives, TrueNegatives int
	// MissedSwitches counts gaps where the policy kept the radio up but
	// the Oracle would have demoted; TruePositives where both demoted.
	MissedSwitches, TruePositives int
}

// FalsePositiveRate is NFS / (NFS + NTN), in percent.
func (c Confusion) FalsePositiveRate() float64 {
	d := c.FalsePositives + c.TrueNegatives
	if d == 0 {
		return 0
	}
	return 100 * float64(c.FalsePositives) / float64(d)
}

// FalseNegativeRate is NMS / (NMS + NTP), in percent.
func (c Confusion) FalseNegativeRate() float64 {
	d := c.MissedSwitches + c.TruePositives
	if d == 0 {
		return 0
	}
	return 100 * float64(c.MissedSwitches) / float64(d)
}

// Score compares a policy's per-gap decisions against the Oracle ground
// truth: the Oracle demotes exactly when the gap exceeds threshold.
func Score(decisions []sim.GapDecision, threshold time.Duration) Confusion {
	var c Confusion
	for _, d := range decisions {
		oracle := policy.OracleDemotes(d.Gap, threshold)
		switch {
		case d.Demoted && oracle:
			c.TruePositives++
		case d.Demoted && !oracle:
			c.FalsePositives++
		case !d.Demoted && oracle:
			c.MissedSwitches++
		default:
			c.TrueNegatives++
		}
	}
	return c
}

// DelayStats summarises session batching delays (Fig. 15, Table 3).
type DelayStats struct {
	Count  int
	Mean   time.Duration
	Median time.Duration
	Max    time.Duration
}

// Delays computes statistics over a delay sample. An empty sample returns
// the zero value.
func Delays(sample []time.Duration) DelayStats {
	if len(sample) == 0 {
		return DelayStats{}
	}
	sorted := make([]time.Duration, len(sample))
	copy(sorted, sample)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return DelayStats{
		Count:  len(sorted),
		Mean:   sum / time.Duration(len(sorted)),
		Median: sorted[len(sorted)/2],
		Max:    sorted[len(sorted)-1],
	}
}

// RelativeError returns (estimate - truth) / truth; 0 when truth is 0.
// Fig. 8 plots this for the energy model validation.
func RelativeError(estimate, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	return (estimate - truth) / truth
}

// MeanAbs returns the mean of absolute values (used to summarise Fig. 8's
// error distribution).
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}

// Battery describes a device battery for lifetime estimates.
type Battery struct {
	// CapacitymAh is the rated capacity in milliamp-hours.
	CapacitymAh float64
	// Voltage is the nominal cell voltage.
	Voltage float64
}

// NexusS is the battery of the paper's conclusion arithmetic (1500 mAh,
// 3.7 V Li-ion).
var NexusS = Battery{CapacitymAh: 1500, Voltage: 3.7}

// EnergyJ returns the battery's total energy in joules.
func (b Battery) EnergyJ() float64 {
	return b.CapacitymAh / 1000 * b.Voltage * 3600
}

// Lifetime returns how long the battery lasts at a constant average power
// draw in milliwatts. Non-positive draw returns 0.
func (b Battery) Lifetime(avgMW float64) time.Duration {
	if avgMW <= 0 {
		return 0
	}
	secs := b.EnergyJ() / (avgMW / 1000)
	return time.Duration(secs * float64(time.Second))
}

// LifetimeGain estimates the battery-lifetime extension from saving a
// fraction of the radio's share of a constant total draw — the paper's
// concluding estimate ("saving 66% ... might correspond to ... about 4.8
// hours"). radioShare is the fraction of total power the radio accounts
// for; savingsPct is the percentage of radio energy saved.
func (b Battery) LifetimeGain(totalMW, radioShare, savingsPct float64) time.Duration {
	if totalMW <= 0 || radioShare < 0 || radioShare > 1 {
		return 0
	}
	before := b.Lifetime(totalMW)
	after := b.Lifetime(totalMW * (1 - radioShare*savingsPct/100))
	return after - before
}
