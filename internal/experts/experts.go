// Package experts implements the online-learning machinery of the paper's
// appendix: the fixed-share "bank of experts" algorithm of Herbster &
// Warmuth (Tracking the Best Expert, 1998) and the two-layer Learn-α
// algorithm of Monteleoni & Jaakkola that learns the switching rate α
// itself.
//
// The MakeActive learning policy (§5.2) instantiates these with experts
// proposing candidate session-delay values and a loss that trades aggregate
// delay against the number of batched sessions. The implementation is
// generic: experts are indexed 0..n-1, predictions are weighted averages of
// caller-supplied expert values, and updates consume per-expert losses.
package experts

import (
	"fmt"
	"math"
)

// FixedShare maintains a weight distribution over n experts and updates it
// with the fixed-share rule:
//
//	p_t(i) = (1/Z) * sum_j p_{t-1}(j) e^{-L(j)} P(i|j, alpha)
//
// where P(i|j, alpha) keeps probability 1-alpha on the same expert and
// spreads alpha uniformly over the others. alpha = 0 degenerates to static
// Bayesian mixing; alpha near 1 forgets quickly.
type FixedShare struct {
	alpha   float64
	weights []float64
}

// NewFixedShare returns a uniform-weight bank over n experts. It panics if
// n < 1 or alpha is outside [0, 1].
func NewFixedShare(n int, alpha float64) *FixedShare {
	if n < 1 {
		panic(fmt.Sprintf("experts: n = %d < 1", n))
	}
	if alpha < 0 || alpha > 1 || math.IsNaN(alpha) {
		panic(fmt.Sprintf("experts: alpha = %v outside [0,1]", alpha))
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return &FixedShare{alpha: alpha, weights: w}
}

// N returns the number of experts.
func (f *FixedShare) N() int { return len(f.weights) }

// Alpha returns the switching rate.
func (f *FixedShare) Alpha() float64 { return f.alpha }

// Weights returns a copy of the current distribution.
func (f *FixedShare) Weights() []float64 {
	out := make([]float64, len(f.weights))
	copy(out, f.weights)
	return out
}

// Predict returns the weight-averaged prediction over the expert values.
// It panics if len(values) != N().
func (f *FixedShare) Predict(values []float64) float64 {
	if len(values) != len(f.weights) {
		panic(fmt.Sprintf("experts: %d values for %d experts", len(values), len(f.weights)))
	}
	var sum float64
	for i, w := range f.weights {
		sum += float64(w * values[i])
	}
	return sum
}

// MixLoss returns the mixture loss -log sum_i p(i) e^{-L(i)}. This is the
// appendix's L(alpha_j, t): how well this bank as a whole predicted the
// last observation. Losses are clamped to keep the exponentials sane.
func (f *FixedShare) MixLoss(losses []float64) float64 {
	return f.mixLoss(lossFactors(make([]float64, len(f.weights)), losses))
}

// Update applies one fixed-share step with the given per-expert losses
// (the losses observed for the round that just ended).
func (f *FixedShare) Update(losses []float64) {
	f.update(lossFactors(make([]float64, len(f.weights)), losses))
}

// lossFactors stores each clamped loss's factor e^{-L(i)} in dst, one slot
// per expert, and returns it. It panics if len(losses) != len(dst).
func lossFactors(dst, losses []float64) []float64 {
	if len(losses) != len(dst) {
		panic(fmt.Sprintf("experts: %d losses for %d experts", len(losses), len(dst)))
	}
	for i, l := range losses {
		dst[i] = math.Exp(-clampLoss(l))
	}
	return dst
}

// mixLoss is MixLoss over the round's loss factors.
func (f *FixedShare) mixLoss(factors []float64) float64 {
	var z float64
	for i, w := range f.weights {
		z += float64(w * factors[i])
	}
	if z <= 0 {
		// All experts infinitely bad; return a large finite loss.
		return maxLoss
	}
	return -math.Log(z)
}

// update is Update over the round's loss factors.
func (f *FixedShare) update(factors []float64) {
	n := len(f.weights)
	// Loss update, in place: p(j) <- p(j) e^{-L(j)}.
	var total float64
	for j := range f.weights {
		f.weights[j] *= factors[j]
		total += f.weights[j]
	}
	if total <= 0 || math.IsNaN(total) {
		// Degenerate round: reset to uniform rather than dividing by zero.
		for i := range f.weights {
			f.weights[i] = 1 / float64(n)
		}
		return
	}
	// Share update: p(i) = (1-alpha) p(i) + alpha/(n-1) * (total - p(i)),
	// then normalize.
	var z float64
	if n == 1 {
		f.weights[0] = 1
		return
	}
	share := f.alpha / float64(n-1)
	for i, w := range f.weights {
		f.weights[i] = float64((1-f.alpha)*w) + float64(share*(total-w))
		z += f.weights[i]
	}
	for i := range f.weights {
		f.weights[i] /= z
	}
}

// Best returns the index of the currently heaviest expert.
func (f *FixedShare) Best() int { return bestIndex(f.weights) }

func bestIndex(w []float64) int {
	best := 0
	for i := range w {
		if w[i] > w[best] {
			best = i
		}
	}
	return best
}

const maxLoss = 30.0 // e^{-30} ~ 1e-13: beyond this, precision is gone anyway

func clampLoss(l float64) float64 {
	if math.IsNaN(l) {
		return maxLoss
	}
	if l > maxLoss {
		return maxLoss
	}
	if l < -maxLoss {
		return -maxLoss
	}
	return l
}

// LearnAlpha is the two-layer algorithm: m fixed-share banks, each with its
// own alpha, and a top-layer Bayesian mixture over the banks weighted by
// how well each bank's mixture predicted past observations (appendix
// equations 3-5).
type LearnAlpha struct {
	banks   []*FixedShare
	topW    []float64
	nValues int
	// factors is Update's scratch: the round's loss factors e^{-L(i)},
	// computed once and shared by every bank.
	factors []float64
}

// DefaultAlphas returns a reasonable log-spaced grid of switching rates for
// the top layer.
func DefaultAlphas() []float64 {
	return []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.4}
}

// NewLearnAlpha creates a two-layer learner over n experts with one
// fixed-share bank per alpha. It panics on an empty alpha list, n < 1, or
// out-of-range alphas (delegated to NewFixedShare).
func NewLearnAlpha(n int, alphas []float64) *LearnAlpha {
	if len(alphas) == 0 {
		panic("experts: no alphas")
	}
	banks := make([]*FixedShare, len(alphas))
	topW := make([]float64, len(alphas))
	for j, a := range alphas {
		banks[j] = NewFixedShare(n, a)
		topW[j] = 1 / float64(len(alphas))
	}
	return &LearnAlpha{banks: banks, topW: topW, nValues: n, factors: make([]float64, n)}
}

// N returns the number of base experts.
func (l *LearnAlpha) N() int { return l.nValues }

// Banks returns the number of alpha-experts.
func (l *LearnAlpha) Banks() int { return len(l.banks) }

// TopWeights returns a copy of the alpha-layer distribution.
func (l *LearnAlpha) TopWeights() []float64 {
	out := make([]float64, len(l.topW))
	copy(out, l.topW)
	return out
}

// Predict implements the appendix's equation (3):
//
//	T_t = sum_j sum_i p'_t(j) p_{t,j}(i) T_i
func (l *LearnAlpha) Predict(values []float64) float64 {
	var sum float64
	for j, b := range l.banks {
		sum += float64(l.topW[j] * b.Predict(values))
	}
	return sum
}

// Update consumes the per-expert losses of the round that just ended:
// the alpha layer re-weights each bank by e^{-MixLoss} (equation 4 with the
// loss of equation 5), then every bank runs its own fixed-share step.
// Each loss's factor e^{-L(i)} is computed once and serves both steps of
// every bank. It panics if len(losses) != N().
func (l *LearnAlpha) Update(losses []float64) {
	factors := lossFactors(l.factors, losses)
	var z float64
	for j, b := range l.banks {
		l.topW[j] *= math.Exp(-clampLoss(b.mixLoss(factors)))
		z += l.topW[j]
	}
	if z <= 0 || math.IsNaN(z) {
		for j := range l.topW {
			l.topW[j] = 1 / float64(len(l.topW))
		}
	} else {
		for j := range l.topW {
			l.topW[j] /= z
		}
	}
	for _, b := range l.banks {
		b.update(factors)
	}
}

// BestAlpha returns the alpha of the currently heaviest bank.
func (l *LearnAlpha) BestAlpha() float64 {
	return l.banks[bestIndex(l.topW)].Alpha()
}
