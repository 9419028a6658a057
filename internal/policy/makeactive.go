package policy

import (
	"time"

	"repro/internal/experts"
)

// LearnedDelay is the §5.2 MakeActive variant: a bank of experts, each
// proposing a fixed session delay T_i = i seconds (i = 1..n), combined by
// the two-layer Learn-alpha algorithm of the appendix. After each batching
// episode the experts are scored with the loss
//
//	L(i) = gamma * Delay(T_i) + 1/b_i
//
// where Delay(T_i) = sum over the b_i bursts that would have arrived within
// T_i of (T_i - arrival offset), i.e. the aggregate delay expert i would
// have imposed, and 1/b_i rewards batching more sessions. gamma trades the
// two; the paper uses 0.008 (with delays in seconds).
type LearnedDelay struct {
	gamma   float64
	values  []float64 // T_i in seconds
	alphas  []float64
	learner *experts.LearnAlpha

	episodes  int
	lastDelay time.Duration
}

// LearnedDelayOption customizes construction.
type LearnedDelayOption func(*learnedDelayConfig)

type learnedDelayConfig struct {
	maxDelay time.Duration
	gamma    float64
	alphas   []float64
}

// WithMaxDelay bounds the largest expert's proposed delay (default 10 s,
// one expert per whole second, matching the appendix's T_i = i).
func WithMaxDelay(d time.Duration) LearnedDelayOption {
	return func(c *learnedDelayConfig) { c.maxDelay = d }
}

// WithGamma sets the delay/batching trade-off (default 0.008, §5.2).
func WithGamma(g float64) LearnedDelayOption {
	return func(c *learnedDelayConfig) { c.gamma = g }
}

// WithAlphas sets the Learn-alpha switching-rate grid.
func WithAlphas(a []float64) LearnedDelayOption {
	return func(c *learnedDelayConfig) { c.alphas = a }
}

// NewLearnedDelay constructs the learning MakeActive policy.
func NewLearnedDelay(opts ...LearnedDelayOption) *LearnedDelay {
	cfg := learnedDelayConfig{
		maxDelay: 10 * time.Second,
		gamma:    0.008,
		alphas:   experts.DefaultAlphas(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	n := int(cfg.maxDelay / time.Second)
	if n < 1 {
		n = 1
	}
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i + 1) // T_i = i seconds, i = 1..n
	}
	return &LearnedDelay{
		gamma:   cfg.gamma,
		values:  values,
		alphas:  cfg.alphas,
		learner: experts.NewLearnAlpha(n, cfg.alphas),
	}
}

// Name implements ActivePolicy.
func (l *LearnedDelay) Name() string { return "MakeActive-Learn" }

// MaxDelay returns the largest expert's proposal — the learning horizon the
// simulator should report arrivals within.
func (l *LearnedDelay) MaxDelay() time.Duration {
	return time.Duration(l.values[len(l.values)-1] * float64(time.Second))
}

// Episodes returns how many batching episodes have been observed.
func (l *LearnedDelay) Episodes() int { return l.episodes }

// LastDelay returns the most recently proposed delay (Fig. 16 plots its
// trajectory).
func (l *LearnedDelay) LastDelay() time.Duration { return l.lastDelay }

// Delay implements ActivePolicy: the weighted average of expert proposals
// (appendix eq. 3).
func (l *LearnedDelay) Delay(time.Duration) time.Duration {
	d := time.Duration(l.learner.Predict(l.values) * float64(time.Second))
	if d < 0 {
		d = 0
	}
	l.lastDelay = d
	return d
}

// Losses computes the per-expert losses for an episode given the arrival
// offsets of bursts within the learning horizon. Exposed for tests.
func (l *LearnedDelay) Losses(arrivals []time.Duration) []float64 {
	losses := make([]float64, len(l.values))
	for i, ti := range l.values {
		var delaySum float64 // seconds
		b := 0
		for _, a := range arrivals {
			as := a.Seconds()
			if as <= ti {
				delaySum += ti - as
				b++
			}
		}
		if b == 0 {
			// Cannot happen when the first burst (offset 0) is included,
			// but stay safe: an expert that batches nothing is maximally
			// penalized on the 1/b term.
			losses[i] = float64(l.gamma*ti) + 1
			continue
		}
		losses[i] = float64(l.gamma*delaySum) + 1/float64(b)
	}
	return losses
}

// ObserveEpisode implements ActivePolicy: score every expert on the episode
// and run the two-layer update.
func (l *LearnedDelay) ObserveEpisode(_ time.Duration, arrivals []time.Duration) {
	if len(arrivals) == 0 {
		return
	}
	l.learner.Update(l.Losses(arrivals))
	l.episodes++
}

// Reset implements ActivePolicy.
func (l *LearnedDelay) Reset() {
	l.learner = experts.NewLearnAlpha(len(l.values), l.alphas)
	l.episodes = 0
	l.lastDelay = 0
}
