// Custom-policy: implement your own demotion policy against the public
// DemotePolicy interface and benchmark it against MakeIdle and the Oracle.
//
// The example policy is an exponentially-weighted-moving-average heuristic:
// it demotes after twice the EWMA of recent gaps, capped at the profile
// threshold — simpler than MakeIdle's expected-energy maximization, and
// measurably worse, which is rather the point.
//
//	go run ./examples/custom-policy
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

// ewmaPolicy demotes after 2x the EWMA of observed inter-arrivals.
type ewmaPolicy struct {
	ewma  time.Duration
	cap   time.Duration
	seen  int
	alpha float64
}

func newEWMA(cap time.Duration) *ewmaPolicy {
	return &ewmaPolicy{cap: cap, alpha: 0.2}
}

func (p *ewmaPolicy) Name() string { return "EWMA-2x" }

func (p *ewmaPolicy) Observe(gap time.Duration) {
	if p.seen == 0 {
		p.ewma = gap
	} else {
		// Each product is rounded explicitly (float64(...)), so no target
		// fuses it with the sum into one FMA and the example prints the
		// same numbers on every architecture.
		p.ewma = time.Duration(float64(p.alpha*float64(gap)) + float64((1-p.alpha)*float64(p.ewma)))
	}
	p.seen++
}

func (p *ewmaPolicy) Decide(time.Duration) time.Duration {
	if p.seen < 10 {
		return 1 << 62 // effectively policy.Never: defer to timers
	}
	w := 2 * p.ewma
	if w > p.cap {
		w = p.cap
	}
	return w
}

func (p *ewmaPolicy) Reset() { p.ewma = 0; p.seen = 0 }

func main() {
	user := repro.Verizon3GUsers()[1]
	tr := user.Generate(5, 4*time.Hour)
	prof := repro.Verizon3G()

	statusQuo, err := repro.Simulate(tr, prof, repro.StatusQuo(), nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	makeIdle, err := repro.NewMakeIdle(prof)
	if err != nil {
		log.Fatal(err)
	}
	policies := []repro.DemotePolicy{
		newEWMA(repro.Threshold(prof)),
		makeIdle,
		repro.NewOracle(prof),
	}

	fmt.Printf("%d packets; status quo %.1f J\n\n", len(tr), statusQuo.TotalJ())
	for _, d := range policies {
		res, err := repro.Simulate(tr, prof, d, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8.1f J  saved %5.1f%%  switches x%.2f\n",
			d.Name(), res.TotalJ(),
			repro.SavingsPercent(statusQuo, res), repro.SwitchRatio(statusQuo, res))
	}
}
