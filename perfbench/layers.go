package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Per-layer timing. A traced run calls each layer's public functions from
// this process, on the inputs of the run's first timed job, and records a
// span around every call; the per-layer metrics are span time per unit of
// work. The daemon itself is not instrumented: spans inside the program
// belong to a later change.

// makeIdlePacketBudget bounds the packets replayed per MakeIdle-class
// scheme (about 8 µs each): enough users to average over, few enough
// that the traced run stays short.
const makeIdlePacketBudget = 100_000

// replayClass names the engine path a scheme replays on, for the
// per-layer metrics and the ledger.
func replayClass(ss fleet.SchemeSpec) string {
	if ss.Policy.Name != "makeidle" {
		return "fast"
	}
	if ss.Active != nil && ss.Active.Name == "learn" {
		return "makeidle_learn"
	}
	return "makeidle"
}

// storeInputs is what the resume workload hands the layer timings: its
// durable store and the keys of the cells in it.
type storeInputs struct {
	dir  string
	keys []string
}

// layers holds one traced run's layer costs.
type layers struct {
	tr        *tracer
	plan      plannedJob
	replay    map[string]float64 // seconds per packet by scheme label
	allocs    float64
	userDays  float64
	slabBytes int64
	genPkts   int64
	cellS     float64 // fleet.RunSummary of the representative cell
	cellLabel string
	overhead  float64 // the cell's time beyond its packets' layer costs
	cellUsers int
	cellRuns  int
	// classLabels lists, per replay class, the scheme labels its
	// sim.replay_ns_per_pkt metric averages over.
	classLabels map[string][]string
}

func replaySpan(label string) string { return "sim.Engine.RunSourceInto[" + label + "]" }

func (l *layers) per(name string) float64 { return l.tr.perWork(name) }

// measureLayers times every layer on p's inputs.
func measureLayers(b *bench, p plannedJob, st *storeInputs) (*layers, error) {
	l := &layers{tr: newTracer(), plan: p, replay: map[string]float64{}}
	prof, err := p.spec.Profiles[0].Profile(power.Default())
	if err != nil {
		return nil, err
	}
	opts := &sim.Options{BurstGap: time.Second}
	// The schemes the replay metrics name (statusquo, the fixed 4.5 s
	// tail and the oracle on the fast path; MakeIdle without and with
	// learning), then every other scheme of the job, each replayed once
	// per measured user.
	named := []fleet.SchemeSpec{demote("statusquo", nil), fixedTail("4.5s"), demote("oracle", nil),
		demote("makeidle", nil), {Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: "learn"}}}
	resolved := map[string]fleet.ResolvedScheme{}
	classOf := map[string]string{}
	l.classLabels = map[string][]string{}
	var labels []string
	for i, ss := range append(named, p.spec.Schemes...) {
		rs, err := fleet.ResolveScheme(policy.Default(), ss)
		if err != nil {
			return nil, err
		}
		if i < len(named) {
			l.classLabels[replayClass(ss)] = append(l.classLabels[replayClass(ss)], rs.Label)
		}
		if _, ok := resolved[rs.Label]; !ok {
			resolved[rs.Label] = rs
			classOf[rs.Label] = replayClass(ss)
			labels = append(labels, rs.Label)
		}
	}

	fitScheme, err := fleet.ResolveScheme(policy.Default(), demote("95iat", nil))
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	var res sim.Result
	var bs trace.BytesSource
	// MakeIdle-class work is sampled up to makeIdlePacketBudget packets
	// per span name; everything else runs on every user.
	sampled := map[string]int64{}
	slabs := make([][][]byte, len(p.cohorts)) // by cohort, then user
	sample := func(name string, n int64, fn func()) {
		if sampled[name] < makeIdlePacketBudget {
			sampled[name] += n
			l.tr.timed(name, -1, n, fn)
		}
	}
	for ci, c := range p.cohorts {
		plan, err := workload.Cohorts().Plan(p.spec.Cohorts[ci].Spec())
		if err != nil {
			return nil, err
		}
		l.userDays += float64(len(c.users)) * plan.Duration.Hours() / 24
		for _, u := range c.users {
			var n int64
			l.tr.timed("workload.User.Stream", -1, u.packets, func() { n, err = drain(u.job.Source(u.job.Seed)) })
			if err != nil {
				return nil, err
			}
			if n != u.packets {
				return nil, fmt.Errorf("generator for seed %d gave %d packets, then %d", u.job.Seed, u.packets, n)
			}
			tr, err := trace.Collect(u.job.Source(u.job.Seed))
			if err != nil {
				return nil, err
			}
			var slab []byte
			l.tr.timed("trace.EncodeStream", -1, n, func() { slab, err = trace.EncodeStream(tr.Source()) })
			if err != nil {
				return nil, err
			}
			l.slabBytes += int64(len(slab))
			slabs[ci] = append(slabs[ci], slab)
			l.genPkts += n
			l.tr.timed("trace.BytesSource.Next", -1, n, func() {
				if err = bs.Reset(slab); err == nil {
					_, err = drain(&bs)
				}
			})
			if err != nil {
				return nil, err
			}
			if n > 1 {
				m, err := policy.NewMakeIdle(prof)
				if err != nil {
					return nil, err
				}
				sample("policy.MakeIdle.Observe+Decide", n-1, func() {
					for i := 1; i < len(tr); i++ {
						m.Decide(tr[i-1].T)
						m.Observe(tr[i].T - tr[i-1].T)
					}
				})
			}
			l.tr.timed("policy.pctiat.fit", -1, n, func() { _, err = fitScheme.Scheme.Demote(tr, prof) })
			if err != nil {
				return nil, err
			}
			for _, label := range labels {
				rs := resolved[label]
				dp, err := rs.Scheme.Demote(tr, prof)
				if err != nil {
					return nil, err
				}
				var ap policy.ActivePolicy
				if rs.Scheme.Active != nil {
					if ap, err = rs.Scheme.Active(tr, prof); err != nil {
						return nil, err
					}
				}
				replay := func() {
					if err = bs.Reset(slab); err == nil {
						err = eng.RunSourceInto(&res, &bs, prof, dp, ap, opts)
					}
				}
				name := replaySpan(label)
				if classOf[label] == "fast" {
					l.tr.timed(name, -1, n, replay)
				} else {
					sample(name, n, replay)
				}
				if err != nil {
					return nil, err
				}
			}
			if ci == 0 && l.allocs == 0 {
				if l.allocs, err = allocsPerReplay(eng, slab, prof, opts); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, label := range labels {
		l.replay[label] = l.per(replaySpan(label))
	}
	if err := l.measureCell(p, prof, resolved, slabs); err != nil {
		return nil, err
	}
	if err := l.measureJobs(b, p, st); err != nil {
		return nil, err
	}
	return l, nil
}

// allocsPerReplay counts heap allocations per fixed-tail replay on a warm
// engine, from a slab.
func allocsPerReplay(eng *sim.Engine, slab []byte, prof power.Profile, opts *sim.Options) (float64, error) {
	const runs = 8
	var res sim.Result
	var bs trace.BytesSource
	ft := &policy.FixedTail{Wait: 4500 * time.Millisecond}
	var ms0, ms1 runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 {
			runtime.ReadMemStats(&ms0)
		}
		if err := bs.Reset(slab); err != nil {
			return 0, err
		}
		if err := eng.RunSourceInto(&res, &bs, prof, ft, nil, opts); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / runs, nil
}

// measureCell times fleet.RunSummary on one representative cell of the
// job: its costliest scheme on the first profile and the largest cohort,
// one worker, warm trace cache. The fleet's own overhead is the cell's
// time minus the same replays run bare on one engine; the two alternate
// so a drift in machine speed hits both.
func (l *layers) measureCell(p plannedJob, prof power.Profile, resolved map[string]fleet.ResolvedScheme, slabs [][][]byte) error {
	ci := 0
	for i, c := range p.cohorts {
		if len(c.users) > len(p.cohorts[ci].users) {
			ci = i
		}
	}
	best := ""
	for _, ss := range p.spec.Schemes {
		rs, err := fleet.ResolveScheme(policy.Default(), ss)
		if err != nil {
			return err
		}
		if best == "" || l.replay[rs.Label] > l.replay[best] {
			best = rs.Label
		}
	}
	scheme := resolved[best].Scheme
	rc, err := fleet.ResolveCohort(workload.Cohorts(), p.spec.Cohorts[ci], p.spec.Seed, &sim.Options{BurstGap: time.Second})
	if err != nil {
		return err
	}
	fjobs := rc.Cohort.Jobs(prof, []fleet.Scheme{scheme})
	opts := fleet.Options{Workers: 1, Shards: p.spec.Shards, TraceCache: fleet.NewTraceCache(32 << 20)}
	if _, err := fleet.RunSummary(fjobs, opts, fleet.SummaryConfig{}); err != nil {
		return err
	}

	type replay struct {
		slab []byte
		dp   policy.DemotePolicy
		ap   policy.ActivePolicy
	}
	var bare []replay
	for ui, u := range p.cohorts[ci].users {
		r := replay{slab: slabs[ci][ui]}
		tr, err := trace.Collect(u.job.Source(u.job.Seed))
		if err != nil {
			return err
		}
		if r.dp, err = scheme.Demote(tr, prof); err != nil {
			return err
		}
		if scheme.Active != nil {
			if r.ap, err = scheme.Active(tr, prof); err != nil {
				return err
			}
		}
		bare = append(bare, r)
	}
	eng := sim.NewEngine()
	var res sim.Result
	var bs trace.BytesSource
	run := func(slab []byte, dp policy.DemotePolicy, ap policy.ActivePolicy) error {
		if err := bs.Reset(slab); err != nil {
			return err
		}
		return eng.RunSourceInto(&res, &bs, prof, dp, ap, &sim.Options{BurstGap: time.Second})
	}
	// The difference is a few percent of the cell, well inside a shared
	// machine's run-to-run noise, so the pair alternates until both have
	// run for a second or so (small cells run many times).
	var cell, plain []float64
	for k := 0; k < 3 || k < 201 && sumOf(cell)+sumOf(plain) < 2; k++ {
		runtime.GC()
		cell = append(cell, l.tr.timed("fleet.RunSummary", -1, 1, func() {
			_, err = fleet.RunSummary(fjobs, opts, fleet.SummaryConfig{})
		}))
		if err != nil {
			return err
		}
		runtime.GC()
		plain = append(plain, l.tr.timed("fleet.bare_replays", -1, 1, func() {
			for _, r := range bare {
				if err = run(r.slab, policy.StatusQuo{}, nil); err != nil {
					return
				}
				if err = run(r.slab, r.dp, r.ap); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return err
		}
	}
	l.cellS = median(cell)
	l.cellRuns = len(cell)
	l.overhead = l.cellS - median(plain)
	l.cellUsers = len(bare)
	l.cellLabel = fmt.Sprintf("%s × %s × %s", best, p.spec.Profiles[0].Name, rc.Label)
	return nil
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// measureJobs times the jobs, codec, store and report layers on a
// reference run of the job that persists its cells to a scratch store.
func (l *layers) measureJobs(b *bench, p plannedJob, st *storeInputs) error {
	dir := filepath.Join(b.work, "layers")
	if err := removeAll(dir); err != nil {
		return err
	}
	defer removeAll(dir)
	cells, err := store.Open(store.Config{Dir: filepath.Join(dir, "cells")})
	if err != nil {
		return err
	}
	m := jobs.NewManager(jobs.Config{Workers: 1, CacheSize: -1, CellCacheSize: -1, Store: cells})
	var j *jobs.Job
	l.tr.timed("jobs.Manager.Submit", -1, 1, func() { j, err = m.Submit(p.spec) })
	if err != nil {
		m.Close()
		return err
	}
	<-j.Done()
	m.Close()
	if err := j.Err(); err != nil {
		return err
	}
	res := j.Result()
	for _, c := range res.Cells {
		var enc []byte
		l.tr.timed("fleet.EncodeSummary+DecodeSummary", -1, 1, func() {
			enc = fleet.EncodeSummary(c.Summary)
			_, err = fleet.DecodeSummary(enc)
		})
		if err != nil {
			return err
		}
	}
	fresh := &jobs.Result{}
	for _, c := range res.Cells {
		fresh.Cells = append(fresh.Cells, &jobs.CellResult{Scheme: c.Scheme, Profile: c.Profile,
			Cohort: c.Cohort, Key: c.Key, Summary: c.Summary})
	}
	var js, want []byte
	n := int64(len(fresh.Cells))
	l.tr.timed("report.JSON", -1, n, func() { js, err = fresh.JSON() })
	if err != nil {
		return err
	}
	l.tr.timed("report.CSV", -1, n, func() { _, err = fresh.CSV() })
	if err != nil {
		return err
	}
	if want, err = res.JSON(); err != nil {
		return err
	}
	if !bytes.Equal(js, want) {
		b.failed++
		b.fail("re-rendering the reference result changed its bytes")
	}
	if err := cells.Close(); err != nil {
		return err
	}

	// Reads, writes and recovery on the workload's own cell records.
	openDir := filepath.Join(dir, "cells")
	if st != nil {
		openDir = filepath.Join(dir, "resume-copy")
		if err := cloneStore(st.dir, openDir); err != nil {
			return err
		}
	}
	var src *store.Store
	l.tr.timed("store.Open", -1, 1, func() { src, err = store.Open(store.Config{Dir: openDir}) })
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := store.Open(store.Config{Dir: filepath.Join(dir, "put")})
	if err != nil {
		return err
	}
	defer dst.Close()
	var keys []string
	if st != nil {
		keys = st.keys
	} else {
		for _, c := range res.Cells {
			keys = append(keys, c.Key)
		}
	}
	for _, k := range keys {
		var payload []byte
		var ok bool
		l.tr.timed("store.Get", -1, 1, func() { payload, ok = src.Get(k) })
		if !ok {
			return fmt.Errorf("store record %s missing", k)
		}
		l.tr.timed("store.Put", -1, 1, func() { err = dst.Put(k, payload) })
		if err != nil {
			return err
		}
	}
	return nil
}

// finish turns the layer costs and the HTTP jobs into the per-layer
// metrics and the ledger, prints them with each layer's self time, and
// writes every span out.
func (l *layers) finish(b *bench, timed []timedJob, httpTr *tracer) {
	ns := func(name string) float64 { return l.per(name) * 1e9 }
	b.layer("workload.gen_ns_per_pkt", ns("workload.User.Stream"), "ns", int(l.genPkts))
	b.count("workload.pkts_per_user_day", float64(l.genPkts)/l.userDays, "count")
	b.layer("trace.encode_ns_per_pkt", ns("trace.EncodeStream"), "ns", int(l.genPkts))
	b.layer("trace.decode_ns_per_pkt", ns("trace.BytesSource.Next"), "ns", int(l.genPkts))
	b.count("trace.slab_bytes_per_pkt", float64(l.slabBytes)/float64(l.genPkts), "B")
	b.layer("policy.makeidle_decide_ns", ns("policy.MakeIdle.Observe+Decide"), "ns", l.spanCount("policy.MakeIdle.Observe+Decide"))
	b.layer("policy.fit_ns_per_pkt", ns("policy.pctiat.fit"), "ns", l.spanCount("policy.pctiat.fit"))
	var fast float64
	for _, label := range l.classLabels["fast"] {
		fast += l.replay[label] / float64(len(l.classLabels["fast"]))
	}
	b.layer("sim.replay_ns_per_pkt.fast", fast*1e9, "ns", l.spanCount(replaySpan(l.classLabels["fast"][0])))
	for _, class := range []string{"makeidle", "makeidle_learn"} {
		label := l.classLabels[class][0]
		b.layer("sim.replay_ns_per_pkt."+class, l.replay[label]*1e9, "ns", l.spanCount(replaySpan(label)))
	}
	b.count("sim.allocs_per_replay", l.allocs, "count")
	b.layer("fleet.cell_s", l.cellS, "s", l.cellRuns)
	b.layer("fleet.overhead_share", l.overhead/l.cellS, "1", l.cellRuns)
	b.layer("fleet.summary_codec_us", ns("fleet.EncodeSummary+DecodeSummary")/1e3, "us", l.spanCount("fleet.EncodeSummary+DecodeSummary"))
	b.layer("jobs.plan_ms", ns("jobs.Manager.Submit")/1e6, "ms", 1)
	b.layer("store.get_us", ns("store.Get")/1e3, "us", l.spanCount("store.Get"))
	b.layer("store.put_us", ns("store.Put")/1e3, "us", l.spanCount("store.Put"))
	b.layer("store.open_ms", ns("store.Open")/1e6, "ms", 1)
	b.layer("report.render_us_per_cell", (ns("report.JSON")+ns("report.CSV"))/1e3, "us", int(l.plan.cells))

	var queue, overhead, tracedS, plainS []float64
	for _, t := range timed {
		queue = append(queue, t.QueueWait)
		overhead = append(overhead, t.Seconds-t.ServerRun)
		switch {
		case !t.inP50():
		case t.traced:
			tracedS = append(tracedS, t.busy())
		default:
			plainS = append(plainS, t.busy())
		}
	}
	b.layer("jobs.queue_wait_ms", median(queue)*1e3, "ms", len(queue))
	b.layer("server.overhead_ms", median(overhead)*1e3, "ms", len(overhead))

	rows, residual := l.ledger(timed)
	b.layer("ledger.residual_share", residual, "1", len(timed))
	tracing := (median(tracedS) - median(plainS)) * 1e3
	b.layer("ledger.tracing_overhead_ms", tracing, "ms", len(timed))

	fmt.Printf("# representative cell for fleet.cell_s: %s\n", l.cellLabel)
	fmt.Printf("# self time by span (layer calls in this process, then HTTP requests):\n")
	for _, tr := range []*tracer{l.tr, httpTr} {
		for _, lt := range tr.layers() {
			fmt.Printf("#   %-48s calls=%-6d self=%10.6fs total=%10.6fs work=%d\n", lt.Name, lt.Count, lt.Self, lt.Total, lt.Work)
		}
	}
	fmt.Printf("# ledger (median over %d timed jobs; share of job_s):\n", len(timed))
	for _, r := range rows {
		fmt.Printf("#   %-10s %10.6fs  %6.2f%%\n", r.name, r.seconds, 100*r.share)
	}
	fmt.Printf("#   %-10s %10s   %6.2f%%\n", "residual", "", 100*residual)
	fmt.Printf("# tracing overhead: %.3f ms (traced job_s p50 %.6fs over %d jobs, untraced %.6fs over %d)\n",
		tracing, median(tracedS), len(tracedS), median(plainS), len(plainS))
	for _, tr := range []struct {
		t    *tracer
		kind string
	}{{l.tr, "layers"}, {httpTr, "http"}} {
		path := filepath.Join(b.work, fmt.Sprintf("spans-%s-%s-%d.json", b.workload, tr.kind, b.seed))
		if err := tr.t.write(path); err != nil {
			b.fail("writing spans: %v", err)
		} else {
			fmt.Printf("# spans: %s (%d)\n", path, len(tr.t.spans))
		}
	}
}

func (l *layers) spanCount(name string) int {
	n := 0
	for _, s := range l.tr.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// ledgerRow is one layer's modelled share of a job.
type ledgerRow struct {
	name    string
	seconds float64
	share   float64
}

// ledger models each timed job as Σ layer cost × the job's count of that
// layer's work, and returns each layer's median share and the median
// residual: 1 − Σ/job_s.
func (l *layers) ledger(timed []timedJob) ([]ledgerRow, float64) {
	order := []string{"workload", "trace", "policy", "sim", "fleet", "store", "jobs", "report", "server"}
	var decideShare, fitShare []float64
	per := map[string][]float64{}
	perShare := map[string][]float64{}
	var residuals []float64
	gen := l.per("workload.User.Stream")
	enc := l.per("trace.EncodeStream")
	dec := l.per("trace.BytesSource.Next")
	decide := l.per("policy.MakeIdle.Observe+Decide")
	fit := l.per("policy.pctiat.fit")
	codec := l.per("fleet.EncodeSummary+DecodeSummary")
	get, put := l.per("store.Get"), l.per("store.Put")
	render := l.per("report.JSON")
	planS := l.per("jobs.Manager.Submit")
	overheadPerUser := l.overhead / float64(l.cellUsers)
	for _, t := range timed {
		cost := map[string]float64{}
		var decideS, fitS float64
		p := t.plan
		executedPerCohort := p.cellsPerCohort
		stored := 0
		if t.kind != "" {
			executedPerCohort = t.executed / len(p.cohorts)
			stored = p.cells - t.executed
		}
		// Which schemes execute: resume's mixed grid executes its new
		// waits (the last schemes), every other job all of them.
		schemes := p.spec.Schemes[len(p.spec.Schemes)-executedPerCohort/len(p.spec.Profiles):]
		if executedPerCohort == 0 {
			schemes = nil
		}
		for _, c := range p.cohorts {
			if len(schemes) > 0 {
				cost["workload"] += float64(c.packets) * gen
				cost["trace"] += float64(c.packets) * enc
			}
			for _, ss := range schemes {
				rs, _ := fleet.ResolveScheme(policy.Default(), ss)
				rep := l.replay[rs.Label]
				class := replayClass(ss)
				users := float64(len(c.users))
				for range p.spec.Profiles {
					pk := float64(c.packets)
					cost["trace"] += 2 * pk * dec
					sim := rep + l.replay["statusquo"] - 2*dec
					if class != "fast" {
						decideS += pk * decide
						sim -= decide
					}
					if rs.Scheme.FitTrace {
						cost["trace"] += pk * dec
						fitS += pk * fit
					}
					cost["sim"] += pk * sim
					cost["fleet"] += users * overheadPerUser
				}
			}
		}
		cost["policy"] = decideS + fitS
		decideShare = append(decideShare, decideS/t.busy())
		fitShare = append(fitShare, fitS/t.busy())
		if t.kind != "" {
			cost["store"] += float64(t.executed)*(put+codec) + float64(stored)*(get+codec)
		}
		cost["jobs"] += planS + t.QueueWait
		cost["report"] += float64(p.cells) * render
		cost["server"] += max(t.Seconds-t.ServerRun-float64(p.cells)*render, 0)
		var total float64
		for _, name := range order {
			total += cost[name]
			per[name] = append(per[name], cost[name])
			perShare[name] = append(perShare[name], cost[name]/t.busy())
		}
		residuals = append(residuals, 1-total/t.busy())
	}
	rows := make([]ledgerRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, ledgerRow{name: name, seconds: median(per[name]), share: median(perShare[name])})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	fmt.Printf("# policy layer: MakeIdle Observe+Decide %.2f%% + trace-fitted (95iat) fits %.2f%% of job_s\n",
		100*median(decideShare), 100*median(fitShare))
	return rows, median(residuals)
}
