package policy

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/energy"
	"repro/internal/power"
)

// MakeIdle is the paper's §4 algorithm. After each packet it chooses the
// dormancy wait t_wait that maximizes the expected energy gain over the
// status quo, using the empirical inter-arrival distribution of the last n
// packets:
//
//	f(t_wait) = E[E_no_switch] - E[E_wait_switch(t_wait)]
//
// where, against the windowed distribution of gaps g,
//
//	E[E_no_switch]        = mean_g E(g)            (the paper's eq. 1)
//	E[E_wait_switch(w)]   = mean_g  { Tail(g)              if g <= w
//	                                  Tail(w) + E_switch   if g  > w }
//
// The second expectation spells out the strategy "wait w; if a packet
// arrives first just pay the tail; otherwise demote and later promote".
// E(g) is energy.GapJ — the status-quo cost of a gap, including the switch
// the timers themselves eventually pay on long gaps. The candidate waits
// are a grid over [0, t_threshold] (§4.2 notes waits beyond t_threshold
// leave no room for savings); if even the best wait shows no expected gain,
// MakeIdle leaves the timers in charge for this packet.
//
// Every energy term above is a pure function of the profile and either a
// windowed gap or a fixed grid wait, so the implementation precomputes
// them — per gap at Observe time, per candidate wait at construction.
//
// Decide returns exactly the wait of the direct evaluation, which sums
// each candidate's expectation over the whole window (oldest gap first)
// and keeps the first wait with the largest strictly positive gain. On
// nearly every packet it gets there in O(len(grid)), from window
// statistics kept as exact integers (u = 2^-53 below):
//
//  1. Observe stores with each gap its grid bucket, the smallest i with
//     grid[i] >= gap, so "gap <= grid[i]" is "bucket <= i", and its two
//     energy terms in fixed point, ⌊TailJ(gap)·2^s⌋ and ⌊E(gap)·2^s⌋.
//     NewMakeIdle picks s so that window·top·2^s < 2^52, where top bounds
//     every energy term, so every window sum is an integer below 2^52 and
//     converts to float exactly. Observe adds the new sample to its
//     bucket's count and TailJ sum and to the window's E sum, and
//     subtracts the sample the ring evicts; integers never drift.
//  2. With P_i and N_i the TailJ sum and count of buckets <= i, and
//     C_i = TailJ(grid[i]) + Eswitch, let A_i = P_i + (n-N_i)·⌊C_i·2^s⌋.
//     Each of the n terms is floored once, so 2^s times wait i's exact
//     window sum lies in [A_i, A_i+n), and 2^s times the exact E sum in
//     [Q, Q+n) for the integer E sum Q. One integer pass over the grid
//     finds the smallest A (first at wait b) and the second smallest.
//  3. The direct evaluation's expectations are sums of n nonnegative
//     floats, left to right, divided by n, so each lies within relative
//     (n+1)·u of its exact value, plus 2^-1075 should the quotient be
//     subnormal. Scaled by n·2^s and widened by
//     ε = (2n + len(grid) + 8)·2^-52, several times (n+1)·u plus the few
//     roundings of the bound arithmetic itself, and by
//     τ = n·2^max(s-1022, -1074), the brackets give floats
//     lo(A_i) <= n·2^s·eWait_i <= hi(A_i) and
//     lo(Q) <= n·2^s·eNoSwitch <= hi(Q), where eWait_i and eNoSwitch
//     are the direct evaluation's computed expectations.
//  4. Wait i is a candidate when lo(A_i) < hi(Q) and
//     lo(A_i) <= hi(A_b) + ε·hi(Q). A non-candidate has eWait_i >=
//     eNoSwitch, so a computed gain <= 0 that the strict comparison never
//     accepts, or eWait_i above eWait_b by more than 2u·eNoSwitch, more
//     than the rounding of either eNoSwitch - eWait, so a computed gain
//     strictly below b's. Dropping it changes neither the largest gain
//     nor the first wait attaining it. lo is monotone in A, so wait b has
//     the smallest lo: if b is no candidate, none is and the answer is
//     Never; if the second smallest A is no candidate either and
//     lo(Q) > hi(A_b), b's gain is surely positive and b wins.
//  5. Otherwise Decide computes E[E_no_switch] in window order and
//     evaluates the candidates directly, in grid order, with the direct
//     loop's strict comparison from a zero best.
//
// The bounds assume the direct evaluation's sums stay finite, that is
// window·top < 2^1024 J. The chosen waits are
// bit-identical to the direct evaluation's (the summation order and every
// term are unchanged), which internal/policy's differential tests check
// against a verbatim copy of it. On real traffic the bounds settle nearly
// every packet, so Decide seldom evaluates a wait directly or even reads
// the window. docs/architecture.md ("MakeIdle's decision cost") records
// what this costs and its ablations.
type MakeIdle struct {
	profile   power.Profile
	threshold time.Duration
	grid      []time.Duration
	minSample int
	paperExp  bool

	// ring is the sliding window of recent inter-arrivals with their
	// energy terms memoized: ring[i].tailJ = TailJ(gap) (the arrival
	// branch of E[E_wait_switch]) and ring[i].gapJ = E(gap) (the
	// status-quo cost). head is the slot the next Observe writes; count
	// the number of valid samples.
	ring  []gapSample
	head  int
	count int

	// gridCost[i] = TailJ(grid[i]) + Eswitch: the no-arrival branch of
	// E[E_wait_switch(grid[i])], and (addition being commutative) also the
	// paper's literal Eswitch + E(t_wait) used under WithPaperExpectation.
	// gridQ[i] is its fixed-point floor, ⌊gridCost[i]·scale⌋.
	gridCost []float64
	gridQ    []int64
	// satGapJ = TailJ(tail) + Eswitch: E(g) for gaps past the timer tail,
	// where the status-quo cost saturates.
	satGapJ float64
	tail    time.Duration

	// scale = 2^s turns joules into the window statistics' fixed-point
	// units of 2^-s J; tauUnit = 2^max(s-1022, -1074) is the per-sample
	// underflow slack in those units (see the type comment).
	scale   float64
	tauUnit float64
	// The window statistics in fixed point: per-bucket sample counts and
	// TailJ sums (len(grid)+1 buckets) and the E sum.
	bucketN []int64
	bucketQ []int64
	sumGapQ int64

	// lower is Decide's scratch: A_i for each grid wait.
	lower []int64
	// evals counts the direct per-wait evaluations Decide has run.
	evals uint64

	lastWait time.Duration
}

// gapSample is one windowed inter-arrival with its memoized energy terms,
// their fixed-point floors, and its grid bucket: the smallest i with
// grid[i] >= gap (len(grid) when the gap exceeds every wait), so
// gap <= grid[i] exactly when bucket <= i.
type gapSample struct {
	gap    time.Duration
	tailJ  float64
	gapJ   float64
	bucket int
	tailQ  int64
	gapQ   int64
}

// MakeIdleOption customizes construction.
type MakeIdleOption func(*makeIdleConfig)

type makeIdleConfig struct {
	windowSize int
	gridSteps  int
	minSample  int
	paperExp   bool
}

// WithWindowSize sets the number of recent inter-arrivals used to build the
// distribution (the paper's n; default 100, swept in Fig. 13).
func WithWindowSize(n int) MakeIdleOption {
	return func(c *makeIdleConfig) { c.windowSize = n }
}

// WithGridSteps sets how many candidate waits are evaluated across
// [0, t_threshold] (default 40).
func WithGridSteps(n int) MakeIdleOption {
	return func(c *makeIdleConfig) { c.gridSteps = n }
}

// WithMinSample sets how many gaps must be observed before MakeIdle starts
// demoting (default 10; below this it defers to the timers).
func WithMinSample(n int) MakeIdleOption {
	return func(c *makeIdleConfig) { c.minSample = n }
}

// WithPaperExpectation switches E[E_wait_switch] to the paper's literal
// formula, Eswitch + E(t_wait), which charges the switch unconditionally
// instead of only on the no-arrival branch. Under that formula f(t_wait)
// is maximized at t_wait = 0 whenever demotion is profitable at all, so
// the policy degenerates to demote-immediately-or-never. Kept as an
// ablation (docs/architecture.md, "MakeIdle's decision cost"); the default
// is the full strategy expectation, which the paper's step-1
// conditional-probability argument implies.
func WithPaperExpectation() MakeIdleOption {
	return func(c *makeIdleConfig) { c.paperExp = true }
}

// NewMakeIdle builds the policy for a profile. The profile must be valid.
func NewMakeIdle(p power.Profile, opts ...MakeIdleOption) (*MakeIdle, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := makeIdleConfig{windowSize: 100, gridSteps: 40, minSample: 10}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.windowSize < 1 {
		cfg.windowSize = 1
	}
	if cfg.gridSteps < 2 {
		cfg.gridSteps = 2
	}
	if cfg.minSample < 1 {
		cfg.minSample = 1
	}
	th := energy.Threshold(&p)
	eswitch := p.SwitchJ()
	satGapJ := energy.TailJ(&p, p.Tail()) + eswitch
	// top bounds every term the window sums add: TailJ is nondecreasing,
	// so no gap's TailJ exceeds the longest duration's.
	top := max(satGapJ, energy.TailJ(&p, math.MaxInt64))
	grid := make([]time.Duration, cfg.gridSteps)
	gridCost := make([]float64, cfg.gridSteps)
	for i := range grid {
		grid[i] = th * time.Duration(i) / time.Duration(cfg.gridSteps-1)
		gridCost[i] = energy.TailJ(&p, grid[i]) + eswitch
		top = max(top, gridCost[i])
	}
	// window·top < 2^(bits.Len(window)+e) = 2^(52-s). The clamp keeps 2^s
	// a float; it only coarsens profiles of absurdly small energies.
	_, e := math.Frexp(top)
	shift := min(52-e-bits.Len(uint(cfg.windowSize)), 1023)
	m := &MakeIdle{
		profile:   p,
		threshold: th,
		grid:      grid,
		gridCost:  gridCost,
		gridQ:     make([]int64, cfg.gridSteps),
		satGapJ:   satGapJ,
		tail:      p.Tail(),
		scale:     math.Ldexp(1, shift),
		tauUnit:   math.Ldexp(1, max(shift-1022, -1074)),
		ring:      make([]gapSample, cfg.windowSize),
		bucketN:   make([]int64, cfg.gridSteps+1),
		bucketQ:   make([]int64, cfg.gridSteps+1),
		lower:     make([]int64, cfg.gridSteps),
		minSample: cfg.minSample,
		paperExp:  cfg.paperExp,
		lastWait:  Never,
	}
	for i, c := range gridCost {
		m.gridQ[i] = m.fixed(c)
	}
	return m, nil
}

// fixed returns ⌊x·2^s⌋ for an energy term 0 <= x <= top. Scaling by a
// power of two is exact unless the product is subnormal, and then both it
// and its floor are 0.
func (m *MakeIdle) fixed(x float64) int64 { return int64(x * m.scale) }

// Name implements DemotePolicy.
func (m *MakeIdle) Name() string { return "MakeIdle" }

// Threshold exposes the computed t_threshold.
func (m *MakeIdle) Threshold() time.Duration { return m.threshold }

// WindowLen reports how many gaps the distribution currently holds.
func (m *MakeIdle) WindowLen() int { return m.count }

// LastWait returns the wait chosen by the most recent Decide (Never when
// the policy deferred to the timers). Fig. 14 plots this trajectory.
func (m *MakeIdle) LastWait() time.Duration { return m.lastWait }

// Observe implements DemotePolicy: slide the window forward, memoizing the
// gap's two energy terms and grid bucket so Decide never re-evaluates them,
// and move the window statistics by the arriving and the evicted sample.
func (m *MakeIdle) Observe(gap time.Duration) {
	tj := energy.TailJ(&m.profile, gap)
	gj := tj
	if gap > m.tail {
		gj = m.satGapJ
	}
	b, _ := slices.BinarySearch(m.grid, gap) // smallest b with grid[b] >= gap
	s := &m.ring[m.head]
	if m.count == len(m.ring) {
		m.bucketN[s.bucket]--
		m.bucketQ[s.bucket] -= s.tailQ
		m.sumGapQ -= s.gapQ
	} else {
		m.count++
	}
	*s = gapSample{gap: gap, tailJ: tj, gapJ: gj, bucket: b, tailQ: m.fixed(tj), gapQ: m.fixed(gj)}
	m.bucketN[b]++
	m.bucketQ[b] += s.tailQ
	m.sumGapQ += s.gapQ
	if m.head++; m.head == len(m.ring) {
		m.head = 0
	}
}

// window returns the ring's live samples as (up to) two contiguous spans,
// oldest gap first — the same iteration order dist.Window.Each used, which
// fixes the float summation order in Decide.
func (m *MakeIdle) window() (a, b []gapSample) {
	start := m.head - m.count
	if start < 0 {
		start += len(m.ring)
	}
	if start+m.count <= len(m.ring) {
		return m.ring[start : start+m.count], nil
	}
	return m.ring[start:], m.ring[:start+m.count-len(m.ring)]
}

// eNoSwitch returns the expected status-quo energy for a gap drawn from
// the window, summed in window order as the direct evaluation does.
func (m *MakeIdle) eNoSwitch() float64 {
	wa, wb := m.window()
	var e float64
	for k := range wa {
		e += wa[k].gapJ
	}
	for k := range wb {
		e += wb[k].gapJ
	}
	return e / float64(m.count)
}

// Decide implements DemotePolicy.
func (m *MakeIdle) Decide(time.Duration) time.Duration {
	if m.count < m.minSample {
		m.lastWait = Never
		return Never
	}
	bestWait := Never
	bestGain := 0.0 // only accept strictly positive expected gain
	if m.paperExp {
		// Paper's literal eq.: Eswitch + E(t_wait), unconditionally.
		eNoSwitch := m.eNoSwitch()
		for i, w := range m.grid {
			if gain := eNoSwitch - m.gridCost[i]; gain > bestGain {
				bestGain = gain
				bestWait = w
			}
		}
		m.lastWait = bestWait
		return bestWait
	}

	// One integer pass over the prefix sums (step 2 of the type comment):
	// each wait's A_i, the smallest (first at wait b) and the second
	// smallest.
	n := int64(m.count)
	var sumQ, below int64
	min1, min2, b := int64(math.MaxInt64), int64(math.MaxInt64), 0
	gq := m.gridQ
	// Slicing to len(gq) lets the compiler drop the loop's bounds checks.
	bq, bn, lower := m.bucketQ[:len(gq)], m.bucketN[:len(gq)], m.lower[:len(gq)]
	for i, cq := range gq {
		sumQ += bq[i]
		below += bn[i]
		a := sumQ + (n-below)*cq
		lower[i] = a
		if a < min1 {
			min1, min2, b = a, min1, i
		} else if a < min2 {
			min2 = a
		}
	}

	// The float bounds and the candidate filter (steps 3 and 4).
	eps := float64(float64(2*m.count+len(m.grid)+8) * 0x1p-52)
	tau := float64(float64(m.count) * m.tauUnit)
	lo := func(a int64) float64 { return float64(float64(a)*(1-eps)) - tau }
	hi := func(a int64) float64 { return float64(float64(a+n)*(1+eps)) + tau }
	hiNo, hiBest := hi(m.sumGapQ), hi(min1)
	cut := hiBest + float64(eps*hiNo)
	candidate := func(a int64) bool { l := lo(a); return l < hiNo && l <= cut }
	if !candidate(min1) {
		m.lastWait = Never
		return Never
	}
	if !candidate(min2) && lo(m.sumGapQ) > hiBest {
		m.lastWait = m.grid[b]
		return m.grid[b]
	}

	// Exact fallback over the candidates, in grid order: the per-wait sum
	// in window order, unchanged.
	eNoSwitch := m.eNoSwitch()
	wa, wb := m.window()
	for i, w := range m.grid {
		if !candidate(m.lower[i]) {
			continue
		}
		m.evals++
		var eWait float64
		wcost := m.gridCost[i]
		for k := range wa {
			if wa[k].gap <= w {
				eWait += wa[k].tailJ
			} else {
				eWait += wcost
			}
		}
		for k := range wb {
			if wb[k].gap <= w {
				eWait += wb[k].tailJ
			} else {
				eWait += wcost
			}
		}
		eWait /= float64(m.count)
		if gain := eNoSwitch - eWait; gain > bestGain {
			bestGain = gain
			bestWait = w
		}
	}
	m.lastWait = bestWait
	return bestWait
}

// Reset implements DemotePolicy.
func (m *MakeIdle) Reset() {
	m.head, m.count = 0, 0
	clear(m.bucketN)
	clear(m.bucketQ)
	m.sumGapQ = 0
	m.lastWait = Never
}
