// Mergeable streaming aggregates for fleet-scale simulation. A shard folds
// every per-user result into a handful of Streams and Histograms as it goes,
// so aggregating a million-user cohort needs O(shards) memory instead of
// O(users); shard partials then Merge pairwise into the fleet total.
//
// Merging is exact for counts and bins and uses the parallel-variance
// formula of Chan, Golub & LeVeque for the moments, so a merged Stream
// reports the same mean/variance (up to float rounding of a fixed merge
// order) as a single Stream fed every sample.

package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Stream accumulates count, mean and variance of a sample stream in O(1)
// space (Welford update), plus min/max and sum. The zero value is an empty
// stream, ready to use. Streams merge with Merge.
type Stream struct {
	N    int64
	Mean float64
	// M2 is the sum of squared deviations from the mean (Welford's
	// aggregate); Variance derives from it.
	M2       float64
	Min, Max float64
}

// Add folds one sample into the stream.
func (s *Stream) Add(x float64) {
	s.N++
	if s.N == 1 {
		s.Mean, s.M2 = x, 0
		s.Min, s.Max = x, x
		return
	}
	d := x - s.Mean
	s.Mean += d / float64(s.N)
	s.M2 += float64(d * (x - s.Mean)) // rounded: no fused multiply-add
	if x < s.Min {
		s.Min = x
	}
	if x > s.Max {
		s.Max = x
	}
}

// AddDuration folds a duration sample, in seconds.
func (s *Stream) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Merge folds another stream into s using the Chan et al. parallel update.
// Either side may be empty.
func (s *Stream) Merge(o Stream) {
	if o.N == 0 {
		return
	}
	if s.N == 0 {
		*s = o
		return
	}
	n := float64(s.N + o.N)
	d := o.Mean - s.Mean
	s.M2 += o.M2 + d*d*float64(s.N)*float64(o.N)/n
	s.Mean += d * float64(o.N) / n
	s.N += o.N
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Sum returns the sample total.
func (s Stream) Sum() float64 { return s.Mean * float64(s.N) }

// Variance returns the population variance (0 for fewer than 2 samples).
func (s Stream) Variance() float64 {
	if s.N < 2 {
		return 0
	}
	return s.M2 / float64(s.N)
}

// Std returns the population standard deviation.
func (s Stream) Std() float64 { return math.Sqrt(s.Variance()) }

// String renders the stream compactly for reports.
func (s Stream) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3g std=%.3g min=%.3g max=%.3g",
		s.N, s.Mean, s.Std(), s.Min, s.Max)
}

// Histogram is a mergeable fixed-bin histogram over [Lo, Hi). Samples below
// Lo land in the first bin, samples at or above Hi in the last, so no sample
// is dropped and merged totals stay exact. Two histograms merge only if
// their layouts match.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	total  int64
}

// NewHistogram builds a histogram of n bins over [lo, hi). n < 1 is clamped
// to 1; hi <= lo is widened to lo+1 so the layout is always valid.
func NewHistogram(lo, hi float64, n int) *Histogram {
	h := new(Histogram)
	h.Init(lo, hi, n)
	return h
}

// Init (re)initializes h in place with n bins over [lo, hi), applying the
// same clamping as NewHistogram. It lets aggregates embed histograms by
// value instead of holding three separately allocated ones.
func (h *Histogram) Init(lo, hi float64, n int) {
	if n < 1 {
		n = 1
	}
	h.InitCounts(lo, hi, make([]int64, n))
}

// InitCounts is Init with caller-provided bin storage: counts (non-empty,
// all zero; its length is the bin count) becomes the histogram's Counts,
// so aggregates holding several histograms can carve them from one slab.
func (h *Histogram) InitCounts(lo, hi float64, counts []int64) {
	if hi <= lo {
		hi = lo + 1
	}
	*h = Histogram{Lo: lo, Hi: hi, Counts: counts}
}

// RestoreCounts overwrites the histogram's bin counts in place — the
// deserialization path of a persisted histogram. The layout (Lo, Hi, bin
// count) is unchanged and must match len(counts); the sample total is
// recomputed as the counts' sum, which is exact because every Add and
// Merge keeps total equal to that sum.
func (h *Histogram) RestoreCounts(counts []int64) error {
	if len(counts) != len(h.Counts) {
		return fmt.Errorf("metrics: restoring %d bins into a %d-bin histogram", len(counts), len(h.Counts))
	}
	var total int64
	for i, c := range counts {
		if c < 0 {
			return fmt.Errorf("metrics: negative bin count %d at bin %d", c, i)
		}
		h.Counts[i] = c
		total += c
	}
	h.total = total
	return nil
}

// bin returns the bin index for a sample, clamped to the edge bins.
func (h *Histogram) bin(x float64) int {
	if x < h.Lo {
		return 0
	}
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// Add folds one sample into the histogram.
func (h *Histogram) Add(x float64) {
	h.Counts[h.bin(x)]++
	h.total++
}

// Count returns the number of samples added.
func (h *Histogram) Count() int64 { return h.total }

// Zero clears every bin and the sample count in place, keeping the bin
// layout and backing storage — the reset half of reusing a histogram as
// scratch across merges.
func (h *Histogram) Zero() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.total = 0
}

// Merge folds another histogram into h. It returns an error when the bin
// layouts differ (merging those would silently misbin samples).
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil || o.total == 0 {
		return nil
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("metrics: histogram layout mismatch: [%g,%g)x%d vs [%g,%g)x%d",
			h.Lo, h.Hi, len(h.Counts), o.Lo, o.Hi, len(o.Counts))
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.total += o.total
	return nil
}

// Quantile returns the q-th (0..1) quantile estimated from the bin counts:
// the upper edge of the bin where the cumulative count crosses q. An empty
// histogram returns Lo.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return h.Lo
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return h.Lo + float64(float64(i+1)*width)
		}
	}
	return h.Hi
}

// String renders a sparkline-style summary: one row per non-empty bin.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "(empty histogram)"
	}
	var sb strings.Builder
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	var peak int64
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", 1+int(29*c/peak))
		fmt.Fprintf(&sb, "[%8.3g, %8.3g) %7d %s\n",
			h.Lo+float64(float64(i)*width), h.Lo+float64(float64(i+1)*width), c, bar)
	}
	return sb.String()
}
