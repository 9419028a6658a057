package policy

import (
	"math"
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
// and keeps the first wait with the largest strictly positive gain. It
// gets there in O(window + grid) per packet by filtering first:
//
//  1. Observe also stores each gap's grid bucket, found by binary search
//     over the integer grid, so "gap <= grid[i]" is "bucket <= i".
//  2. One pass over the window, in window order, computes E[E_no_switch]
//     exactly as the direct evaluation does, plus per-bucket sample counts
//     and TailJ sums.
//  3. A prefix pass over the grid approximates each candidate's window
//     sum as Σ_{b<=i} TailJ + (n - count_{<=i})·(TailJ(w)+Eswitch).
//  4. Every term is >= 0, so both the direct left-to-right sum and this
//     regrouped one lie within γ_K·S of the exact real sum S, where
//     γ_K = K·u/(1-K·u), u = 2^-53 and K bounds the roundings any term
//     passes through (n-1 for the direct sum, n + len(grid) + 2 for the
//     regrouped one). Scaling the approximation by a rounded 1/n and
//     widening it by ε = (2n + len(grid) + 8)·2^-52 — more than twice
//     both bounds plus the roundings of that scaling and of the direct
//     evaluation's division — and by 2^-1022 for underflow gives floats
//     L <= E_wait <= H around the direct evaluation's E[E_wait_switch].
//     Because rounding is monotone, eNoSwitch - L and eNoSwitch - H
//     bound its computed gain from above and below.
//  5. The candidates are the waits whose gain upper bound is > 0 and
//     >= max(0, the largest lower bound). If there is just one and that
//     largest lower bound is > 0, the candidate is the wait holding it,
//     and it wins. Otherwise the candidates are evaluated directly, in
//     grid order, with the direct loop's strict comparison from a zero
//     best.
//
// A non-candidate either has gain <= 0, which the strict comparison never
// accepts, or gain below another wait's lower bound, so it is not the
// maximum; dropping such waits changes neither the maximum nor the first
// wait attaining it. The chosen waits are therefore bit-identical to the
// direct evaluation's (the summation order and every term are unchanged),
// which internal/policy's differential tests check against a verbatim
// copy of it. On real traffic one candidate survives nearly every packet,
// so Decide seldom evaluates a wait directly.
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
	gridCost []float64
	// satGapJ = TailJ(tail) + Eswitch: E(g) for gaps past the timer tail,
	// where the status-quo cost saturates.
	satGapJ float64
	tail    time.Duration

	// Decide's scratch: per-bucket sample counts and TailJ sums over the
	// window (len(grid)+1 buckets), and each grid wait's approximate
	// E[E_wait_switch].
	bucketN []int
	bucketJ []float64
	approx  []float64
	// evals counts the direct per-wait evaluations Decide has run.
	evals uint64

	lastWait time.Duration
}

// gapSample is one windowed inter-arrival with its memoized energy terms
// and its grid bucket: the smallest i with grid[i] >= gap (len(grid) when
// the gap exceeds every wait), so gap <= grid[i] exactly when bucket <= i.
type gapSample struct {
	gap    time.Duration
	tailJ  float64
	gapJ   float64
	bucket int
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
// ablation (DESIGN.md §5, decision 2); the default is the full strategy
// expectation, which the paper's step-1 conditional-probability argument
// implies.
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
	grid := make([]time.Duration, cfg.gridSteps)
	gridCost := make([]float64, cfg.gridSteps)
	for i := range grid {
		grid[i] = th * time.Duration(i) / time.Duration(cfg.gridSteps-1)
		gridCost[i] = energy.TailJ(&p, grid[i]) + eswitch
	}
	return &MakeIdle{
		profile:   p,
		threshold: th,
		grid:      grid,
		gridCost:  gridCost,
		satGapJ:   energy.TailJ(&p, p.Tail()) + eswitch,
		tail:      p.Tail(),
		ring:      make([]gapSample, cfg.windowSize),
		bucketN:   make([]int, cfg.gridSteps+1),
		bucketJ:   make([]float64, cfg.gridSteps+1),
		approx:    make([]float64, cfg.gridSteps),
		minSample: cfg.minSample,
		paperExp:  cfg.paperExp,
		lastWait:  Never,
	}, nil
}

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
// gap's two energy terms and grid bucket so Decide never re-evaluates them.
func (m *MakeIdle) Observe(gap time.Duration) {
	tj := energy.TailJ(&m.profile, gap)
	gj := tj
	if gap > m.tail {
		gj = m.satGapJ
	}
	b, _ := slices.BinarySearch(m.grid, gap) // smallest b with grid[b] >= gap
	m.ring[m.head] = gapSample{gap: gap, tailJ: tj, gapJ: gj, bucket: b}
	m.head = (m.head + 1) % len(m.ring)
	if m.count < len(m.ring) {
		m.count++
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

// Decide implements DemotePolicy.
func (m *MakeIdle) Decide(time.Duration) time.Duration {
	if m.count < m.minSample {
		m.lastWait = Never
		return Never
	}
	wa, wb := m.window()
	// One pass in window order: the expected status-quo energy for a gap
	// drawn from the window (summed in the order the chosen waits have
	// always depended on) and the per-bucket statistics for the filter.
	n := float64(m.count)
	clear(m.bucketN)
	clear(m.bucketJ)
	var eNoSwitch float64
	for _, span := range [2][]gapSample{wa, wb} {
		for k := range span {
			s := &span[k]
			eNoSwitch += s.gapJ
			m.bucketN[s.bucket]++
			m.bucketJ[s.bucket] += s.tailJ
		}
	}
	eNoSwitch /= n

	bestWait := Never
	bestGain := 0.0 // only accept strictly positive expected gain
	if m.paperExp {
		// Paper's literal eq.: Eswitch + E(t_wait), unconditionally.
		for i, w := range m.grid {
			if gain := eNoSwitch - m.gridCost[i]; gain > bestGain {
				bestGain = gain
				bestWait = w
			}
		}
		m.lastWait = bestWait
		return bestWait
	}

	// Prefix pass: approximate each grid wait's window sum, scaled to the
	// expectation; the smallest one gives the largest gain lower bound.
	eps := float64(2*m.count+len(m.grid)+8) * 0x1p-52
	inv := 1 / n
	minApprox := math.Inf(1)
	var sumJ float64
	sumN := 0
	for i := range m.grid {
		sumJ += m.bucketJ[i]
		sumN += m.bucketN[i]
		a := (sumJ + float64(m.count-sumN)*m.gridCost[i]) * inv
		m.approx[i] = a
		minApprox = min(minApprox, a)
	}
	maxLo := max(0, eNoSwitch-(minApprox*(1+eps)+0x1p-1022))

	// Candidates: every wait that might win or tie (see the type comment).
	// When only one remains and some wait's gain is surely positive, the
	// candidate is that wait and it wins outright.
	candidate := func(a float64) bool {
		hi := eNoSwitch - (a*(1-eps) - 0x1p-1022)
		return hi > 0 && hi >= maxLo
	}
	cands, first := 0, 0
	for i, a := range m.approx {
		if candidate(a) {
			if cands == 0 {
				first = i
			}
			cands++
		}
	}
	if cands == 1 && maxLo > 0 {
		m.lastWait = m.grid[first]
		return m.grid[first]
	}

	// Exact fallback over the candidates, in grid order: the per-wait sum
	// in window order, unchanged.
	for i, w := range m.grid {
		if !candidate(m.approx[i]) {
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
		eWait /= n
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
	m.lastWait = Never
}
