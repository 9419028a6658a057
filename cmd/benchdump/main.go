// benchdump measures the canonical grid benchmarks (the same computations
// as BenchmarkGridSweep, BenchmarkGridSweepWide and
// BenchmarkGridSweepSharedCohort, via the jobs.Bench*GridSpec
// constructors) and either records the results as a committed
// baseline or checks the current tree against one. It exists so the perf
// trajectory is a tracked artifact:
//
//	go run ./cmd/benchdump -out BENCH_grid.json     # refresh the baseline
//	go run ./cmd/benchdump -check BENCH_grid.json   # CI regression gate
//
// The baseline file is a JSON array with one record per registered
// benchmark. -check validates every entry: it fails (exit 1) when any
// benchmark's throughput falls below -min-throughput times its baseline or
// its allocations per cell exceed -max-allocs times it. A slow or noisy
// machine can depress throughput without any code regression, so failed
// checks re-measure up to -retries times and pass if any attempt is within
// bounds; allocations are scheduling-independent, so their bound stays
// tight. Baselines embed each benchmark spec's fingerprint — a check
// against a baseline recorded for a different grid refuses to compare and
// asks for a refresh instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/jobs"
)

// baseline is one committed benchmark record. Field names are the file
// format; don't rename without migrating BENCH_*.json.
type baseline struct {
	Bench           string  `json:"bench"`
	SpecFingerprint string  `json:"spec_fingerprint"`
	GoVersion       string  `json:"go_version"`
	Date            string  `json:"date"`
	Iterations      int     `json:"iterations"`
	CellsPerSec     float64 `json:"cells_per_sec"`
	AllocsPerCell   float64 `json:"allocs_per_cell"`
	NsPerOp         float64 `json:"ns_per_op"`
}

// benchDef registers one measurable benchmark: the grid it replays, the
// cell count per submission, and the manager configuration — mirroring the
// in-tree benchmark of the same name so the committed baseline and `go
// test -bench` always measure the same computation.
type benchDef struct {
	name  string
	spec  func() jobs.Spec
	cells int
	cfg   jobs.Config
}

var benches = []benchDef{
	{
		name:  "GridSweep",
		spec:  jobs.BenchGridSpec,
		cells: jobs.BenchGridCells,
		cfg:   jobs.Config{Runners: 1, CacheSize: -1, CellCacheSize: -1},
	},
	{
		name:  "GridSweepWide",
		spec:  jobs.BenchWideGridSpec,
		cells: jobs.BenchWideGridCells,
		cfg:   jobs.Config{Runners: 1, CacheSize: -1, CellCacheSize: -1},
	},
	{
		// The shared-cohort sweep runs with the trace cache at its default
		// budget (the daemon's default configuration): the baseline tracks
		// the memoized, generate-once throughput.
		name:  "GridSweepSharedCohort",
		spec:  jobs.BenchSharedCohortGridSpec,
		cells: jobs.BenchSharedCohortGridCells,
		cfg:   jobs.Config{Runners: 1, CacheSize: -1, CellCacheSize: -1},
	},
}

func main() {
	var (
		out     = flag.String("out", "", "measure and write the baseline JSON to this file")
		check   = flag.String("check", "", "measure and compare against the baseline JSON in this file")
		measure = flag.Duration("measure", 2*time.Second, "minimum measuring time per attempt")
		warmup  = flag.Int("warmup", 3, "warm-up submissions before measuring")
		retries = flag.Int("retries", 3, "re-measure attempts before a -check failure is final")
		minTpt  = flag.Float64("min-throughput", 0.8, "fail -check below this fraction of baseline cells/sec")
		maxAll  = flag.Float64("max-allocs", 2.0, "fail -check above this multiple of baseline allocs/cell")
	)
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchdump: exactly one of -out or -check is required")
		flag.Usage()
		os.Exit(2)
	}

	if *out != "" {
		var records []baseline
		for _, def := range benches {
			cur, err := def.run(*measure, *warmup)
			if err != nil {
				fatal(err)
			}
			report("measured", cur)
			records = append(records, cur)
		}
		b, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
		return
	}

	bases, err := readBaselines(*check)
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, base := range bases {
		def, ok := lookup(base.Bench)
		if !ok {
			fatal(fmt.Errorf("%s records unknown benchmark %q; refresh it with -out", *check, base.Bench))
		}
		fp, err := def.spec().Fingerprint()
		if err != nil {
			fatal(fmt.Errorf("benchmark %s: %w", base.Bench, err))
		}
		if base.SpecFingerprint != fp {
			fatal(fmt.Errorf("%s entry %s was recorded for a different benchmark grid (fingerprint %.12s, current %.12s); refresh it with -out",
				*check, base.Bench, base.SpecFingerprint, fp))
		}
		fmt.Printf("== %s\n", base.Bench)
		report("baseline", base)
		if !checkBench(def, base, *measure, *warmup, *retries, *minTpt, *maxAll) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkBench measures def up to retries times and reports whether any
// attempt stays within bounds of base.
func checkBench(def benchDef, base baseline, measure time.Duration, warmup, retries int, minTpt, maxAll float64) bool {
	attempts := retries
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		cur, err := def.run(measure, warmup)
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("attempt %d", attempt), cur)
		failures := compare(base, cur, minTpt, maxAll)
		if len(failures) == 0 {
			fmt.Printf("ok: %.1fx throughput, %.2fx allocs vs baseline\n",
				cur.CellsPerSec/base.CellsPerSec, cur.AllocsPerCell/base.AllocsPerCell)
			return true
		}
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchdump: %s: %s\n", def.name, f)
		}
		if attempt >= attempts {
			fmt.Fprintf(os.Stderr, "benchdump: %s: regression persisted across %d attempts\n", def.name, attempts)
			return false
		}
		fmt.Fprintln(os.Stderr, "benchdump: retrying")
	}
}

// readBaselines parses the baseline file: a non-empty JSON array of
// records.
func readBaselines(path string) ([]baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []baseline
	if err := json.Unmarshal(raw, &many); err != nil {
		return nil, fmt.Errorf("parse %s: %w; the file must be a JSON array of records, refresh it with -out", path, err)
	}
	if len(many) == 0 {
		return nil, fmt.Errorf("%s holds no baseline records; refresh it with -out", path)
	}
	return many, nil
}

func lookup(name string) (benchDef, bool) {
	for _, def := range benches {
		if def.name == name {
			return def, true
		}
	}
	return benchDef{}, false
}

// compare returns the bound violations of cur against base, empty when the
// check passes.
func compare(base, cur baseline, minTpt, maxAll float64) []string {
	var failures []string
	if floor := minTpt * base.CellsPerSec; cur.CellsPerSec < floor {
		failures = append(failures, fmt.Sprintf(
			"throughput regressed: %.0f cells/sec < %.0f (%.0f%% of baseline %.0f)",
			cur.CellsPerSec, floor, 100*minTpt, base.CellsPerSec))
	}
	if ceil := maxAll * base.AllocsPerCell; cur.AllocsPerCell > ceil {
		failures = append(failures, fmt.Sprintf(
			"allocations regressed: %.1f allocs/cell > %.1f (%.1fx baseline %.1f)",
			cur.AllocsPerCell, ceil, maxAll, base.AllocsPerCell))
	}
	return failures
}

// run executes the benchmark grid through a fresh manager — the same setup
// as the in-tree benchmark of the same name — for at least the requested
// measuring time, and returns the record.
func (def benchDef) run(measure time.Duration, warmup int) (baseline, error) {
	m := jobs.NewManager(def.cfg)
	defer m.Close()
	spec := def.spec()
	fp, err := spec.Fingerprint()
	if err != nil {
		return baseline{}, err
	}

	for i := 0; i < warmup; i++ {
		if err := submit(m, spec, def.cells); err != nil {
			return baseline{}, err
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for time.Since(start) < measure {
		if err := submit(m, spec, def.cells); err != nil {
			return baseline{}, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	cells := float64(def.cells * iters)
	return baseline{
		Bench:           def.name,
		SpecFingerprint: fp,
		GoVersion:       runtime.Version(),
		Date:            time.Now().UTC().Format("2006-01-02"),
		Iterations:      iters,
		CellsPerSec:     cells / elapsed.Seconds(),
		AllocsPerCell:   float64(after.Mallocs-before.Mallocs) / cells,
		NsPerOp:         float64(elapsed.Nanoseconds()) / float64(iters),
	}, nil
}

// submit runs one grid job to completion and verifies its shape.
func submit(m *jobs.Manager, spec jobs.Spec, cells int) error {
	job, err := m.Submit(spec)
	if err != nil {
		return err
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		return err
	}
	if n := len(job.Result().Cells); n != cells {
		return fmt.Errorf("grid produced %d cells, want %d", n, cells)
	}
	return nil
}

func report(label string, b baseline) {
	fmt.Printf("%-10s %8.0f cells/sec  %6.1f allocs/cell  %.2fms/op  (%d iters, %s, %s)\n",
		label+":", b.CellsPerSec, b.AllocsPerCell, b.NsPerOp/1e6, b.Iterations, b.GoVersion, b.Date)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdump:", err)
	os.Exit(1)
}
