package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// SummaryConfig fixes the histogram layouts of a Summary. All shards of a
// run must share one config or the histograms refuse to merge.
type SummaryConfig struct {
	// EnergyMaxJ is the upper edge of the per-user energy histogram
	// (default 10000 J; overflow clamps into the last bin).
	EnergyMaxJ float64
	// DelayMaxS is the upper edge of the per-burst batching-delay
	// histogram in seconds (default 30 s).
	DelayMaxS float64
	// SignalMax is the upper edge of the per-user promotion-count
	// histogram (default 10000).
	SignalMax float64
	// Bins is the bin count of every histogram (default 50).
	Bins int
}

func (c SummaryConfig) withDefaults() SummaryConfig {
	if c.EnergyMaxJ <= 0 {
		c.EnergyMaxJ = 10_000
	}
	if c.DelayMaxS <= 0 {
		c.DelayMaxS = 30
	}
	if c.SignalMax <= 0 {
		c.SignalMax = 10_000
	}
	if c.Bins <= 0 {
		c.Bins = 50
	}
	return c
}

// SchemeSummary aggregates every job of one scheme: streaming moments over
// per-user scalars plus mergeable histograms for energy, delay and
// signaling. No per-user result survives the fold.
type SchemeSummary struct {
	// Energy streams per-user total energy (J).
	Energy metrics.Stream
	// SavingsPct streams per-user savings vs the StatusQuo baseline in
	// percent; empty when jobs carry no baseline.
	SavingsPct metrics.Stream
	// SwitchRatio streams per-user promotions / baseline promotions;
	// empty without baselines.
	SwitchRatio metrics.Stream
	// Promotions streams per-user promotion counts (signaling load).
	Promotions metrics.Stream
	// BurstDelay streams per-burst batching delays in seconds.
	BurstDelay metrics.Stream
	// EnergyHist bins per-user energy (J); DelayHist per-burst delays
	// (s); SignalHist per-user promotion counts. Embedded by value: a
	// fleet run allocates one SchemeSummary per (shard, scheme), and the
	// three histogram headers ride in that allocation instead of adding
	// three more.
	EnergyHist, DelayHist, SignalHist metrics.Histogram
}

func newSchemeSummary(cfg SummaryConfig) *SchemeSummary {
	s := new(SchemeSummary)
	// One slab backs all three histograms (full slice expressions keep an
	// append from ever crossing into a neighbour's bins).
	n := cfg.Bins
	slab := make([]int64, 3*n)
	s.EnergyHist.InitCounts(0, cfg.EnergyMaxJ, slab[0:n:n])
	s.DelayHist.InitCounts(0, cfg.DelayMaxS, slab[n:2*n:2*n])
	s.SignalHist.InitCounts(0, cfg.SignalMax, slab[2*n:3*n:3*n])
	return s
}

func (s *SchemeSummary) fold(out Outcome) {
	r := out.Result
	s.Energy.Add(r.TotalJ())
	s.EnergyHist.Add(r.TotalJ())
	s.Promotions.Add(float64(r.Promotions))
	s.SignalHist.Add(float64(r.Promotions))
	for _, d := range r.BurstDelays {
		s.BurstDelay.AddDuration(d)
		s.DelayHist.Add(d.Seconds())
	}
	if out.Job.Baseline {
		s.SavingsPct.Add(metrics.SavingsPercentJ(out.Baseline.TotalJ, r.TotalJ()))
		s.SwitchRatio.Add(metrics.SwitchRatioN(out.Baseline.Promotions, r.Promotions))
	}
}

// clone returns an independent bitwise copy: the streams are value
// structs, and the histograms get a fresh slab carved exactly like
// newSchemeSummary's with the counts (and totals) copied over.
func (s *SchemeSummary) clone() *SchemeSummary {
	c := new(SchemeSummary)
	*c = *s // streams by value; histogram headers share slabs until re-carved
	n := len(s.EnergyHist.Counts)
	slab := make([]int64, 3*n)
	copy(slab[0:n], s.EnergyHist.Counts)
	copy(slab[n:2*n], s.DelayHist.Counts)
	copy(slab[2*n:3*n], s.SignalHist.Counts)
	c.EnergyHist.Counts = slab[0:n:n]
	c.DelayHist.Counts = slab[n : 2*n : 2*n]
	c.SignalHist.Counts = slab[2*n : 3*n : 3*n]
	return c
}

// reset zeroes the aggregate in place for reuse: streams back to their
// zero values, histogram bins and totals cleared, layout and slab kept.
func (s *SchemeSummary) reset() {
	s.Energy = metrics.Stream{}
	s.SavingsPct = metrics.Stream{}
	s.SwitchRatio = metrics.Stream{}
	s.Promotions = metrics.Stream{}
	s.BurstDelay = metrics.Stream{}
	s.EnergyHist.Zero()
	s.DelayHist.Zero()
	s.SignalHist.Zero()
}

func (s *SchemeSummary) merge(o *SchemeSummary) error {
	s.Energy.Merge(o.Energy)
	s.SavingsPct.Merge(o.SavingsPct)
	s.SwitchRatio.Merge(o.SwitchRatio)
	s.Promotions.Merge(o.Promotions)
	s.BurstDelay.Merge(o.BurstDelay)
	if err := s.EnergyHist.Merge(&o.EnergyHist); err != nil {
		return err
	}
	if err := s.DelayHist.Merge(&o.DelayHist); err != nil {
		return err
	}
	return s.SignalHist.Merge(&o.SignalHist)
}

// Summary is the standard fleet aggregate: per-scheme mergeable statistics
// over an entire cohort.
type Summary struct {
	cfg SummaryConfig
	// Jobs counts folded jobs across all schemes.
	Jobs int64
	// Schemes maps scheme label to its aggregate.
	Schemes map[string]*SchemeSummary

	// spare holds zeroed SchemeSummaries recycled by Reset, popped before
	// allocating. Only scratch accumulators inside a run ever carry spares
	// — every Summary a caller sees has a nil spare, so DeepEqual
	// comparisons and the codecs are unaffected.
	spare []*SchemeSummary //rrclint:scratch
}

// NewSummary returns an empty summary with the given histogram layouts.
func NewSummary(cfg SummaryConfig) *Summary {
	return &Summary{cfg: cfg.withDefaults(), Schemes: map[string]*SchemeSummary{}}
}

// Clone returns an independent bitwise copy of the summary: mutating
// either side (folds, merges) never shows through the other. The spare
// list is scratch and not cloned.
func (s *Summary) Clone() *Summary {
	c := NewSummary(s.cfg)
	c.Jobs = s.Jobs
	//rrclint:ordered map-to-map clone keyed by the same labels; no order reaches bytes
	for k, v := range s.Schemes {
		c.Schemes[k] = v.clone()
	}
	return c
}

// Reset empties the summary for reuse as a scratch accumulator, moving its
// scheme aggregates onto the spare list (zeroed, layout kept) so the next
// fold into the same labels allocates nothing. An empty map — rather than
// zeroed entries left in place — matters for correctness, not just
// hygiene: merging a summary that carries empty scheme entries would
// create spurious keys in the destination.
func (s *Summary) Reset() *Summary {
	s.Jobs = 0
	//rrclint:ordered spare-list order is scratch-only: every spare is zeroed with the identical cfg layout, so which one a later fold pops is unobservable
	for k, agg := range s.Schemes {
		agg.reset()
		s.spare = append(s.spare, agg)
		delete(s.Schemes, k)
	}
	return s
}

// scheme returns the aggregate for label k, reusing a spare before
// allocating.
func (s *Summary) scheme(k string) *SchemeSummary {
	agg := s.Schemes[k]
	if agg == nil {
		if n := len(s.spare); n > 0 {
			agg = s.spare[n-1]
			s.spare = s.spare[:n-1]
		} else {
			agg = newSchemeSummary(s.cfg)
		}
		s.Schemes[k] = agg
	}
	return agg
}

// Fold folds one outcome into the summary.
func (s *Summary) Fold(out Outcome) {
	s.Jobs++
	s.scheme(out.Job.Scheme).fold(out)
}

// Merge folds another summary into s, scheme by scheme in sorted label
// order (a fixed order, so merged floats are reproducible).
func (s *Summary) Merge(o *Summary) error {
	s.Jobs += o.Jobs
	if len(o.Schemes) <= 1 {
		// One key needs no ordering; grid cells run a single scheme, so
		// their shard merges skip the sorted-keys allocation entirely.
		//rrclint:ordered at most one key under the len<=1 guard; a single iteration has no order
		for k, v := range o.Schemes {
			if err := s.mergeScheme(k, v); err != nil {
				return err
			}
		}
		return nil
	}
	keys := make([]string, 0, len(o.Schemes))
	for k := range o.Schemes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := s.mergeScheme(k, o.Schemes[k]); err != nil {
			return err
		}
	}
	return nil
}

func (s *Summary) mergeScheme(k string, o *SchemeSummary) error {
	if err := s.scheme(k).merge(o); err != nil {
		return fmt.Errorf("fleet: scheme %s: %w", k, err)
	}
	return nil
}

// SchemeNames returns the aggregated scheme labels in sorted order.
func (s *Summary) SchemeNames() []string {
	keys := make([]string, 0, len(s.Schemes))
	for k := range s.Schemes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the per-scheme aggregate table plus delay quantiles.
func (s *Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet summary: %d jobs, %d schemes\n", s.Jobs, len(s.Schemes))
	for _, name := range s.SchemeNames() {
		a := s.Schemes[name]
		fmt.Fprintf(&sb, "%-28s energy/user %s\n", name, a.Energy.String())
		if a.SavingsPct.N > 0 {
			fmt.Fprintf(&sb, "%-28s saved%%     %s\n", "", a.SavingsPct.String())
			fmt.Fprintf(&sb, "%-28s sw-ratio   %s\n", "", a.SwitchRatio.String())
		}
		fmt.Fprintf(&sb, "%-28s promotions %s\n", "", a.Promotions.String())
		if a.BurstDelay.N > 0 {
			fmt.Fprintf(&sb, "%-28s delay(s)   %s p50=%.2f p95=%.2f\n", "",
				a.BurstDelay.String(), a.DelayHist.Quantile(0.5), a.DelayHist.Quantile(0.95))
		}
	}
	return sb.String()
}

// SummaryAccumulator is the ready-made Accumulator reducing into a Summary.
// Layout mismatches cannot occur (every shard shares cfg), so Merge's error
// path is unreachable and swallowed. It opts into every reuse path: Reset
// and Clone let the runtime recycle shard accumulators (O(workers) summary
// allocations per run) while keeping snapshots deterministic, and Transient
// is safe because Fold copies scalars out of the Result and retains
// nothing.
func SummaryAccumulator(cfg SummaryConfig) Accumulator[*Summary] {
	cfg = cfg.withDefaults()
	return Accumulator[*Summary]{
		New: func() *Summary { return NewSummary(cfg) },
		Fold: func(s *Summary, out Outcome) *Summary {
			s.Fold(out)
			return s
		},
		Merge: func(a, b *Summary) *Summary {
			if err := a.Merge(b); err != nil {
				panic(err) // impossible: all shards share one layout
			}
			return a
		},
		Reset:     func(s *Summary) *Summary { return s.Reset() },
		Clone:     func(s *Summary) *Summary { return s.Clone() },
		Transient: true,
	}
}

// RunSummary runs the jobs and reduces them into the standard Summary.
func RunSummary(jobs []Job, opts Options, cfg SummaryConfig) (*Summary, error) {
	return Run(jobs, opts, SummaryAccumulator(cfg))
}

// RunSummaryLazyProgress is RunSummary plus a deferred-partial feed: after
// each shard completes, onProgress receives the progress counts and a snap
// function that builds the merged Summary over every shard finished so far
// — but only when called. Callers that sample partials (a status endpoint
// polled a handful of times per run) pay the merge on read instead of once
// per shard; callers that never read pay nothing.
//
// snap builds its summary by the same op sequence as merging every
// completed shard in shard index order into a fresh accumulator (see
// runHooked: a clone of the eagerly merged in-order prefix plus the
// still-pending shards in index order), so a snapshot's content is a
// deterministic function of the *set* of completed shards, and the final
// result remains bit-identical to RunSummary. snap is safe to call from
// any goroutine, during the run or after it returns; later calls observe
// newly completed shards. Each snap() result is an independent Summary the
// caller may retain. onProgress runs serialized on a worker goroutine;
// keep it quick.
func RunSummaryLazyProgress(jobs []Job, opts Options, cfg SummaryConfig, onProgress func(snap func() *Summary, p Progress)) (*Summary, error) {
	if onProgress == nil {
		return RunSummary(jobs, opts, cfg)
	}
	return runHooked(jobs, opts, SummaryAccumulator(cfg), onProgress)
}

// SeedStride spaces per-user seeds so adjacent users draw well-separated
// RNG streams (the prime stride the experiments layer already used).
const SeedStride = 104729

// UserSeed returns the trace seed of user i in a cohort rooted at seed.
func UserSeed(seed int64, i int) int64 { return seed + int64(i)*SeedStride }
