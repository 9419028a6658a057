package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"slices"
	"strconv"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WaitPlan is a grid's whole wait axis, known when the grid is planned:
// per profile, the wait rules its jobs replay (the StatusQuo baseline's
// tail-clamped wait, the constant waits and the Oracle thresholds of its
// wait-rule schemes), the trace-fitted demote halves whose fitted policy
// is a wait rule (the 95% IAT timer), and the simulation options all of
// them replay under.
//
// Every job of the grid carries the one plan (Job.Plan). The trace cache
// memoizes one wait table per plan Key on each retained slab: the first
// job of a user fits the plan's halves through the fit memo, adds each
// fitted rule to every profile's set, and replays every rule on every
// profile in one sim.Engine.RunWaits pass. Every job of the plan then
// reads its baseline, and its own Result when its demote policy is a wait
// rule, from that immutable table. A job whose rule the table lacks, or
// that has no plan, replays itself; the bytes are the same either way. A
// plan is immutable once NewWaitPlan returns it.
type WaitPlan struct {
	// Key is derived from the other fields: plans with equal contents
	// share their tables, so two submissions of one spec reuse them.
	Key string
	// Sets are the rules per profile, each clamped to its profile's tail
	// (sim.Wait.Clamped) and listed once.
	Sets []sim.WaitSet
	// Fits are the trace-fitted demote halves, each named once.
	Fits []FitWait
	// Opts are the options every table replays under: the jobs' options
	// without the per-policy logs, which no table records. Jobs whose
	// options differ in anything else replay themselves.
	Opts sim.Options
}

// FitWait is one trace-fitted demote half of a plan: its fit memo key and
// its factory, which must meet FitKey's contract.
type FitWait struct {
	Key    FitKey
	Demote func(tr trace.Trace, prof power.Profile) (policy.DemotePolicy, error)
}

// NewWaitPlan returns the plan of sets and fits under opts, taking
// ownership of sets: it clamps each set's rules to its profile's tail and
// drops repeats in place, and leaves out the sets whose profile fails
// validation, so they cannot fail the tables of the other profiles (their
// jobs replay themselves and report the error). Fits naming one key twice
// keep the first.
func NewWaitPlan(sets []sim.WaitSet, fits []FitWait, opts *sim.Options) *WaitPlan {
	p := &WaitPlan{Opts: plainOpts(opts)}
	for _, s := range sets {
		if s.Prof.Validate() != nil {
			continue
		}
		rules := s.Rules[:0]
		for _, r := range s.Rules {
			if r = r.Clamped(s.Prof.Tail()); !slices.Contains(rules, r) {
				rules = append(rules, r)
			}
		}
		p.Sets = append(p.Sets, sim.WaitSet{Prof: s.Prof, Rules: rules})
	}
	for _, f := range fits {
		if !slices.ContainsFunc(p.Fits, func(o FitWait) bool { return o.Key == f.Key }) {
			p.Fits = append(p.Fits, f)
		}
	}
	b := appendKey(make([]byte, 0, 1024), reflect.ValueOf(&p.Opts).Elem())
	b = appendKey(b, reflect.ValueOf(&p.Sets).Elem())
	for i := range p.Fits {
		b = appendKey(b, reflect.ValueOf(&p.Fits[i].Key).Elem())
	}
	sum := sha256.Sum256(b)
	p.Key = string(hex.AppendEncode(b[:0], sum[:]))
	return p
}

// appendKey appends v's contents to b field by field and element by
// element, so two values of one type append the same bytes exactly when
// their contents are equal. It covers the kinds a plan is made of
// (fmt's %v would do, at an allocation per field).
func appendKey(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendKey(b, v.Field(i))
		}
	case reflect.Slice:
		b = strconv.AppendInt(b, int64(v.Len()), 10)
		for i := 0; i < v.Len(); i++ {
			b = appendKey(b, v.Index(i))
		}
	case reflect.String:
		b = strconv.AppendQuote(b, v.String())
	case reflect.Bool:
		b = strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int64:
		b = strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint8:
		b = strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Float64:
		b = strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
	default:
		panic("fleet: no plan key for a " + v.Type().String())
	}
	return append(b, '|')
}

// plainOpts is opts without the per-policy logs (nil reads as the zero
// value, which the engine treats identically).
func plainOpts(opts *sim.Options) sim.Options {
	if opts == nil {
		return sim.Options{}
	}
	return sim.Options{BurstGap: opts.BurstGap}
}

// waitTable is a plan replayed over one slab: res[g][i] holds the scalars
// of sets[g].Rules[i] (sim.Engine.RunWaits), Policy unset. sets are the
// plan's, plus its fitted rules. A table is immutable once built.
type waitTable struct {
	sets []sim.WaitSet
	res  [][]sim.Result
}

// result returns the Result of the rule r under prof, or nil when the
// table (nil included) does not hold it.
func (t *waitTable) result(prof *power.Profile, r sim.Wait) *sim.Result {
	if t == nil {
		return nil
	}
	for g := range t.sets {
		if t.sets[g].Prof != *prof {
			continue
		}
		if i := slices.Index(t.sets[g].Rules, r.Clamped(prof.Tail())); i >= 0 {
			return &t.res[g][i]
		}
		return nil
	}
	return nil
}

// table returns the wait table of the job's plan over its slab from tc,
// built by this worker if it is the first to ask. It is nil when the job
// has no plan, its options are not the plan's, or tc does not retain the
// slab.
func (ws *workerState) table(job *Job, slab []byte, tc *TraceCache) (*waitTable, error) {
	p := job.Plan
	if p == nil || plainOpts(job.Opts) != p.Opts {
		return nil, nil
	}
	return tc.table(job.CacheKey, p, func() (*waitTable, error) { return ws.buildTable(job, slab, tc) })
}

// buildTable fits the plan's halves through tc's fit memo on the worker's
// scratch trace, a ProfileFree half once for every profile and any other
// once per profile, and adds each fitted rule to its profile's set; a half
// whose fit fails or whose policy is no wait rule adds nothing (its own
// jobs replay themselves and report the error). It then replays every set
// in one pass, from the fit trace when the fits have just collected the
// slab (see open).
func (ws *workerState) buildTable(job *Job, slab []byte, tc *TraceCache) (*waitTable, error) {
	p := job.Plan
	t := &waitTable{sets: p.Sets}
	if len(p.Fits) > 0 {
		// Clipped, so appending a fitted rule never writes to the plan.
		t.sets = slices.Clone(p.Sets)
		for g := range t.sets {
			t.sets[g].Rules = slices.Clip(t.sets[g].Rules)
		}
	}
	for _, fw := range p.Fits {
		var r sim.Wait
		var ok bool
		for g := range t.sets {
			prof := t.sets[g].Prof
			if g == 0 || !fw.Key.ProfileFree {
				r, ok = ws.fitRule(job, slab, tc, fw, prof)
			}
			if c := r.Clamped(prof.Tail()); ok && !slices.Contains(t.sets[g].Rules, c) {
				t.sets[g].Rules = append(t.sets[g].Rules, c)
			}
		}
	}
	n := 0
	for _, s := range t.sets {
		n += len(s.Rules)
	}
	flat := make([]sim.Result, n)
	t.res = make([][]sim.Result, len(t.sets))
	for g, s := range t.sets {
		k := len(s.Rules)
		t.res[g], flat = flat[:k:k], flat[k:]
	}
	src, err := ws.open(job, slab, tc)
	if err != nil {
		return nil, err
	}
	if err := ws.engine.RunWaits(src, t.sets, &p.Opts, t.res); err != nil {
		return nil, err
	}
	return t, nil
}

// fitRule fits the half fw to the job's packets under prof through tc's
// fit memo and returns its wait rule, if its policy has one.
func (ws *workerState) fitRule(job *Job, slab []byte, tc *TraceCache, fw FitWait, prof power.Profile) (sim.Wait, bool) {
	v, err := tc.fit(job.CacheKey, policy.RoleDemote, fw.Key, prof, func() (any, error) {
		tr, err := ws.collect(job, slab, tc)
		if err != nil {
			return nil, err
		}
		return fw.Demote(tr, prof)
	})
	if d, ok := v.(policy.DemotePolicy); ok && err == nil {
		return sim.WaitOf(d)
	}
	return sim.Wait{}, false
}
