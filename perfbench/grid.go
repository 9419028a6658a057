package main

import (
	"fmt"
	"time"
)

// maxJobs bounds one run's seed list; a run stops far earlier.
const maxJobs = 4096

// sideStarts execs and stops a second daemon n times, recording each
// exec-to-healthz time as a restart sample. A start takes a few
// milliseconds and drifts by tens of percent within seconds on a shared
// machine, so a run spreads these samples across its timed loop, between
// jobs, instead of taking them all at once.
func sideStarts(b *bench, n int, restart *[]float64) error {
	for k := 0; k < n; k++ {
		d, dt, err := startDaemon(b.daemon, nil)
		if err != nil {
			return err
		}
		if err := d.stop(); err != nil {
			return err
		}
		*restart = append(*restart, dt.Seconds())
	}
	return nil
}

// setUp starts a daemon and runs the warm-up job on it. It returns the
// daemon and the set-up time: exec to the warm-up job's last result byte,
// net of the CPU time stolen from the machine meanwhile (see endToEnd).
func setUp(b *bench, warm plannedJob) (*daemon, float64, error) {
	stolen0, err := stolenSeconds()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, _, err := startDaemon(b.daemon, nil)
	if err != nil {
		return nil, 0, err
	}
	b.attempted++
	if _, err := d.runJob(warm.body, nil); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	secs := since(t0)
	stolen1, err := stolenSeconds()
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, max(secs-(stolen1-stolen0), 0), nil
}

// runGrid runs a workload whose every job is one grid with a fresh seed:
// paper-grid and tail-sweep.
func runGrid(b *bench, planFn func(seed int64) (plannedJob, error)) error {
	seeds := jobSeeds(b.seed, maxJobs)
	warm, err := planFn(seeds[0])
	if err != nil {
		return err
	}
	first, err := planFn(seeds[1])
	if err != nil {
		return err
	}
	var lay *layers
	if b.trace {
		// Layer timings run in this process before the daemon starts, so
		// nothing else competes for the client's core.
		if lay, err = measureLayers(b, first, nil); err != nil {
			return err
		}
	}

	// Set-up is exec to the end of the warm-up job, b.z.setups times; the
	// last daemon set up serves the timed jobs. A fresh daemon has no
	// cache, so every set-up runs the same warm-up job.
	var setup, restart []float64
	for k := 1; k < b.z.setups; k++ {
		side, s, err := setUp(b, warm)
		if err != nil {
			return err
		}
		if err := side.stop(); err != nil {
			return err
		}
		setup = append(setup, s)
	}
	// The first timed job's reference runs in this process while the
	// serving daemon runs the warm-up job, on the core the client leaves
	// idle.
	ref := make(chan referenceResult, 1)
	go func() { ref <- referenceOf(first.spec) }()
	d, s, err := setUp(b, warm)
	want := <-ref
	if err != nil {
		return err
	}
	setup = append(setup, s)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	fmt.Printf("# job warm-up seed=%d users=%d cells=%d packets=%d\n", warm.spec.Seed, warm.users, warm.cells, warm.packets)

	var tr *tracer
	if b.trace {
		tr = newTracer()
	}
	var timed []timedJob
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 1; i == 1 || since(t0) < b.seconds && i < len(seeds); i++ {
		p := first
		if i > 1 {
			if p, err = planFn(seeds[i]); err != nil {
				return err
			}
		}
		// A traced run alternates traced and untraced jobs, so the
		// difference of their medians is the tracing overhead.
		jt := tr
		if i%2 == 0 {
			jt = nil
		}
		b.attempted++
		r, err := d.runJob(p.body, jt)
		if err != nil {
			b.failed++
			b.fail("job %d (seed %d): %v", i, p.spec.Seed, err)
			if i == 1 {
				return err
			}
			continue
		}
		tj := timedJob{jobRun: r, plan: p, executed: p.cells, packets: p.packetCells(p.cellsPerCohort),
			traced: jt != nil, unit: i}
		if err := checkShape(tj); err != nil {
			b.failed++
			b.fail("job %s: %v", r.ID, err)
		}
		timed = append(timed, tj)
		fmt.Printf("# job %s seed=%d users=%d cells=%d packets=%d job_s=%.4f\n",
			r.ID, p.spec.Seed, p.users, p.cells, p.packets, r.Seconds)
		if err := sideStarts(b, b.z.sideStarts, &restart); err != nil {
			return err
		}
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return err
	}

	b.checkBytes(want, timed[0].Result, "first timed job")
	b.endToEnd(timed, setup, restart, cpu1-cpu0)
	b.httpCounts(timed)
	if lay != nil {
		lay.finish(b, timed, tr)
	}
	return nil
}

// timedJob is one timed job with the work it implied.
type timedJob struct {
	jobRun
	plan     plannedJob
	executed int    // cells the job is expected to execute
	packets  int64  // packet-cells of the executed cells
	kind     string // "" for grid jobs; "resubmit" or "mixed" on resume
	traced   bool
	unit     int // jobs of one unit (a grid job; a resume iteration) share it
}

// inP50 reports whether the job counts toward job_s_p50: every grid job,
// and resume's resubmissions, which repeat the same fsync-free work (the
// half-new grids' times swing with the disk's fsync latency).
func (t timedJob) inP50() bool { return t.kind == "" || t.kind == "resubmit" }

// endToEnd records the end-to-end metrics over the untraced timed jobs
// (all of them, in an untraced run). The rates are medians over units —
// one grid job, or one resume iteration — of the unit's work over its
// time, so one slow burst cannot swing a run's figure.
//
// Job and set-up times are net of the CPU time the hypervisor stole from
// the machine meanwhile (jobRun.busy): on a shared host the stolen share
// of a job swings from none to 40% within a minute, and it is no property
// of the program. The wall-clock median and the stolen share are printed
// beside them. restart_s, a bare daemon start, takes milliseconds, below
// the 10 ms resolution of the steal counter; it is printed as the 10th
// percentile of its samples, the starts no steal burst hit, and is not in
// the result line, because even those starts slow by half when the host
// is busy.
func (b *bench) endToEnd(timed []timedJob, setup, restart []float64, cpu float64) {
	var p50, wall, rss []float64
	var secs, stolen float64
	type unit struct{ secs, cells, packets float64 }
	var units []unit
	last := -1
	for _, t := range timed {
		if t.traced {
			continue
		}
		rss = append(rss, t.PeakMiB)
		secs += t.Seconds
		stolen += t.Stolen
		if t.inP50() {
			p50 = append(p50, t.busy())
			wall = append(wall, t.Seconds)
		}
		if t.unit != last {
			units = append(units, unit{})
			last = t.unit
		}
		u := &units[len(units)-1]
		u.secs += t.busy()
		u.cells += float64(t.plan.cells)
		u.packets += float64(t.packets)
	}
	var cellRate, packetRate []float64
	for _, u := range units {
		cellRate = append(cellRate, u.cells/u.secs)
		packetRate = append(packetRate, u.packets/u.secs)
	}
	b.e2e("job_s_p50", median(p50), "s", len(p50))
	b.e2e("packets_per_s", median(packetRate), "1/s", len(packetRate))
	b.e2e("cells_per_s", median(cellRate), "1/s", len(cellRate))
	b.e2e("cpu_s_per_job", cpu/float64(len(timed)), "s", len(timed))
	b.e2e("rss_peak_mib", median(rss), "MiB", len(rss))
	b.e2e("setup_s", median(setup), "s", len(setup))
	b.info("restart_s", quantile(restart, 0.1), "s", len(restart))
	b.info("job_wall_s_p50", median(wall), "s", len(wall))
	if secs > 0 {
		b.info("stolen_share", stolen/secs, "1", len(units))
	}
}

// httpCounts records the exact ratios the daemon's /healthz counters give
// over the timed jobs, and checks each job's counters against its plan:
// the cells it executes, and one trace-cache miss per user of a cohort
// with executed cells, every other executed cell of that cohort a hit.
// The hit ratio is therefore 1 - 1/(executed cells per cohort).
func (b *bench) httpCounts(timed []timedJob) {
	var hits, lookups, executed, planned int64
	for _, t := range timed {
		h := t.After.TraceCacheHits - t.Before.TraceCacheHits
		m := t.After.TraceCacheMisses - t.Before.TraceCacheMisses
		ex := t.After.CellsExecuted - t.Before.CellsExecuted
		if ex != int64(t.executed) {
			b.failed++
			b.fail("job %s executed %d cells, want %d", t.ID, ex, t.executed)
		}
		perCohort := int64(t.executed / len(t.plan.cohorts))
		wantM := int64(0)
		if perCohort > 0 {
			wantM = int64(t.plan.users)
		}
		if wantH := (perCohort - 1) * wantM; h != wantH || m != wantM {
			b.failed++
			b.fail("job %s: %d trace-cache hits and %d misses, want %d and %d", t.ID, h, m, wantH, wantM)
		}
		hits += h
		lookups += h + m
		executed += ex
		planned += int64(t.plan.cells)
	}
	if lookups > 0 {
		b.count("fleet.trace_cache_hit_ratio", float64(hits)/float64(lookups), "1")
	} else {
		b.count("fleet.trace_cache_hit_ratio", 0, "1")
	}
	b.count("jobs.frontier_ratio", float64(executed)/float64(planned), "1")
}
