package experts

import (
	"math"
	"math/rand"
	"testing"
)

// referenceMixLoss and referenceUpdate are FixedShare.MixLoss and Update as
// they were before the loss factors were shared: each evaluates its own
// e^{-L(j)} and Update allocates its own tmp. They are the differential
// oracle the factor form must match bit for bit, kept verbatim but for the
// explicit float64 roundings that keep them unfused on every architecture,
// as the code under test is.
func (f *FixedShare) referenceMixLoss(losses []float64) float64 {
	if len(losses) != len(f.weights) {
		panic("experts: losses/experts mismatch")
	}
	var z float64
	for i, w := range f.weights {
		z += float64(w * math.Exp(-clampLoss(losses[i])))
	}
	if z <= 0 {
		// All experts infinitely bad; return a large finite loss.
		return maxLoss
	}
	return -math.Log(z)
}

func (f *FixedShare) referenceUpdate(losses []float64) {
	n := len(f.weights)
	if len(losses) != n {
		panic("experts: losses/experts mismatch")
	}
	// Loss update: tmp_j = p(j) e^{-L(j)}.
	tmp := make([]float64, n)
	var total float64
	for j := range tmp {
		tmp[j] = f.weights[j] * math.Exp(-clampLoss(losses[j]))
		total += tmp[j]
	}
	if total <= 0 || math.IsNaN(total) {
		// Degenerate round: reset to uniform rather than dividing by zero.
		for i := range f.weights {
			f.weights[i] = 1 / float64(n)
		}
		return
	}
	// Share update: p(i) = (1-alpha) tmp_i + alpha/(n-1) * (total - tmp_i),
	// then normalize.
	var z float64
	if n == 1 {
		f.weights[0] = 1
		return
	}
	share := f.alpha / float64(n-1)
	for i := range f.weights {
		f.weights[i] = float64((1-f.alpha)*tmp[i]) + float64(share*(total-tmp[i]))
		z += f.weights[i]
	}
	for i := range f.weights {
		f.weights[i] /= z
	}
}

// referenceUpdate is LearnAlpha.Update as it was, over the reference bank
// steps.
func (l *LearnAlpha) referenceUpdate(losses []float64) {
	var z float64
	for j, b := range l.banks {
		l.topW[j] *= math.Exp(-clampLoss(b.referenceMixLoss(losses)))
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
		b.referenceUpdate(losses)
	}
}

// sameBits reports whether two weight vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkLearnersAgree runs one round on both learners (got through Update,
// want through referenceUpdate) and fails unless every weight and the
// prediction over values stay bit-identical.
func checkLearnersAgree(t *testing.T, got, want *LearnAlpha, losses, values []float64) {
	t.Helper()
	got.Update(losses)
	want.referenceUpdate(losses)
	if !sameBits(got.topW, want.topW) {
		t.Fatalf("losses %v: top weights %v, reference %v", losses, got.topW, want.topW)
	}
	for j := range got.banks {
		if !sameBits(got.banks[j].weights, want.banks[j].weights) {
			t.Fatalf("losses %v: bank %d weights %v, reference %v", losses, j, got.banks[j].weights, want.banks[j].weights)
		}
	}
	if g, w := got.Predict(values), want.Predict(values); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("losses %v: Predict %v, reference %v", losses, g, w)
	}
}

// lossDraws are the loss shapes the differential test feeds the learner:
// MakeActive-like losses, losses past the clamp, and degenerate values.
var lossDraws = []func(r *rand.Rand) float64{
	func(r *rand.Rand) float64 { return 1 + r.Float64()*3 },
	func(r *rand.Rand) float64 { return r.NormFloat64() * 40 },
	func(r *rand.Rand) float64 {
		return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1e308, -1e308, 30, -30}[r.Intn(8)]
	},
}

// TestLearnAlphaMatchesReference checks LearnAlpha.Update, which computes
// each loss's factor once per round, against the verbatim per-bank update
// over expert counts 1-50, the default and extreme alphas, and losses that
// include NaN, infinities and values past the clamp. FixedShare's public
// MixLoss and Update, which delegate to the same factor form, are checked
// against their reference copies on the way.
func TestLearnAlphaMatchesReference(t *testing.T) {
	rounds := 0
	for _, n := range []int{1, 2, 5, 21, 50} {
		for _, alphas := range [][]float64{DefaultAlphas(), {0, 0.5, 1}} {
			r := rand.New(rand.NewSource(int64(n)))
			got, want := NewLearnAlpha(n, alphas), NewLearnAlpha(n, alphas)
			fs, fsRef := NewFixedShare(n, alphas[1]), NewFixedShare(n, alphas[1])
			losses := make([]float64, n)
			values := make([]float64, n)
			for i := range values {
				values[i] = float64(i) * 0.5
			}
			for k := 0; k < 300; k++ {
				draw := lossDraws[min(k/100, len(lossDraws)-1)]
				for i := range losses {
					losses[i] = draw(r)
					if r.Intn(8) == 0 {
						losses[i] = lossDraws[r.Intn(len(lossDraws))](r)
					}
				}
				checkLearnersAgree(t, got, want, losses, values)
				if g, w := fs.MixLoss(losses), fsRef.referenceMixLoss(losses); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("n=%d MixLoss %v, reference %v", n, g, w)
				}
				fs.Update(losses)
				fsRef.referenceUpdate(losses)
				if !sameBits(fs.weights, fsRef.weights) {
					t.Fatalf("n=%d FixedShare weights %v, reference %v", n, fs.weights, fsRef.weights)
				}
				rounds++
			}
		}
	}
	t.Logf("%d rounds matched", rounds)
}

// FuzzLearnAlphaUpdate drives LearnAlpha.Update and the verbatim reference
// over a fuzzed loss sequence and compares every weight after each round.
// Each loss takes two bytes, read as an int16 in thousandths, except
// that -32768 is NaN and ±32767 are ±Inf; n experts take 2n bytes a round.
func FuzzLearnAlphaUpdate(f *testing.F) {
	f.Add([]byte{0x03, 0xe8, 0x07, 0xd0, 0x0b, 0xb8, 0x00, 0x32}, uint8(3), false)
	f.Add([]byte{0x80, 0x00, 0x7f, 0xff, 0x80, 0x01, 0x75, 0x30, 0x8a, 0xd0, 0x00, 0x00}, uint8(2), true)
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0xff, 0xff}, uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8, extreme bool) {
		n := 1 + int(nRaw)%40
		alphas := DefaultAlphas()
		if extreme {
			alphas = []float64{0, 0.5, 1}
		}
		got, want := NewLearnAlpha(n, alphas), NewLearnAlpha(n, alphas)
		losses := make([]float64, n)
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(i)
		}
		for k := 0; k+2*n <= len(data); k += 2 * n {
			for i := range losses {
				switch v := int16(uint16(data[k+2*i])<<8 | uint16(data[k+2*i+1])); v {
				case math.MinInt16:
					losses[i] = math.NaN()
				case math.MaxInt16:
					losses[i] = math.Inf(1)
				case -math.MaxInt16:
					losses[i] = math.Inf(-1)
				default:
					losses[i] = float64(v) / 1000
				}
			}
			checkLearnersAgree(t, got, want, losses, values)
		}
	})
}
