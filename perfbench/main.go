// Command perfbench is the repository's end-to-end benchmark. It starts a
// real rrcsimd, drives one of three workloads over loopback HTTP from a
// single client on one connection (a closed loop: one job in flight),
// checks the result bytes against an in-process jobs.Manager run of the
// same spec, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also times each layer's public functions from outside the daemon, on
// the same inputs, and reports the per-layer metrics, a ledger of layer
// cost against each job's run time, and the tracing overhead.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 35 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	paper-grid  5 schemes (incl. MakeIdle) × 2 Verizon profiles × study-3g day
//	tail-sweep  8 constant-wait/oracle/95iat schemes × 4 profiles × 2 study mixes
//	resume      restart over a 512-cell store, resubmit it, submit a half-new grid
//
// BENCHMARK.json bounds the first two. Resume's figures follow the fsync
// latency of the disk the store is on, which drifts two- to threefold
// within minutes on a shared virtual disk, so resume is not bounded.
//
// The daemon runs one fleet worker (-parallel 1), so daemon and client
// each get a core on a two-core machine.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // scaled-down sizes, for the benchmark's own tests
	daemon   string // rrcsimd binary
	work     string // scratch directory inside the checkout
	root     string // repository root, for provenance
	z        sizes
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value (0: an exact count)
	layer bool    // a per-layer metric, reported by traced runs
	info  bool    // printed in the table only, never in the result line
}

// bench carries one run's configuration, output and verdict.
type bench struct {
	config
	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
	problems  []string
	counts    map[string]float64 // exact counts, guarded across runs
	sources   string             // digest of the benchmarked sources
}

// e2e records an end-to-end metric over n samples.
func (b *bench) e2e(name string, v float64, unit string, n int) {
	b.set(name, metric{Value: v, Unit: unit, n: n})
}

// layer records a per-layer metric over n samples.
func (b *bench) layer(name string, v float64, unit string, n int) {
	b.set(name, metric{Value: v, Unit: unit, n: n, layer: true})
}

// info records a figure the table prints to explain the metrics; the
// result line never carries it.
func (b *bench) info(name string, v float64, unit string, n int) {
	b.set(name, metric{Value: v, Unit: unit, n: n, info: true})
}

// count records an exact per-layer count, which the cross-run guard
// checks in traced and untraced runs alike.
func (b *bench) count(name string, v float64, unit string) {
	b.layer(name, v, unit, 0)
	b.counts[name] = v
}

func (b *bench) set(name string, m metric) {
	if _, ok := b.metrics[name]; !ok {
		b.order = append(b.order, name)
	}
	b.metrics[name] = m
}

// fail records a failed job or check; the run then exits non-zero.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "paper-grid, tail-sweep or resume")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: the job seed list derives from it")
	flag.Float64Var(&c.seconds, "seconds", 35, "how long the timed loop runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.daemon, "daemon", "", "rrcsimd binary")
	flag.StringVar(&c.work, "work", ".bench_build", "scratch directory")
	flag.StringVar(&c.root, "root", ".", "repository root")
	flag.Parse()
	c.trace = traceFlag == 1
	b, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(b.problems) > 0 {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report. A non-nil error
// means no result could be produced; problems recorded on the returned
// bench mean the result is wrong.
func run(c config) (*bench, error) {
	if c.daemon == "" {
		return nil, errors.New("-daemon is required")
	}
	if c.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	c.z = fullSizes
	if c.smoke {
		c.z = smokeSizes
	}
	b := &bench{config: c, metrics: map[string]metric{}, counts: map[string]float64{}}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	b.sources = sourceDigest(c.root)
	b.provenance()
	var err error
	switch c.workload {
	case "paper-grid":
		err = runGrid(b, func(seed int64) (plannedJob, error) { return plan(paperGrid(c.z, seed)) })
	case "tail-sweep":
		err = runGrid(b, func(seed int64) (plannedJob, error) { return plan(tailSweep(c.z, seed)) })
	case "resume":
		err = runResume(b)
	default:
		return nil, fmt.Errorf("unknown -workload %q (paper-grid, tail-sweep, resume)", c.workload)
	}
	if err != nil {
		return nil, err
	}
	if err := b.guardCounts(); err != nil {
		return nil, err
	}
	b.report()
	return b, nil
}

// provenance prints what two runs must share to measure the same thing.
func (b *bench) provenance() {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v smoke=%v\n",
		b.workload, b.seed, b.seconds, b.trace, b.smoke)
	fmt.Printf("# nproc=%d daemon=-parallel 1 GOMAXPROCS=%s go=%s\n",
		runtime.NumCPU(), envOr("GOMAXPROCS", fmt.Sprintf("%d (default)", runtime.NumCPU())), runtime.Version())
	fmt.Printf("# commit=%s sources=%s\n", gitCommit(b.root), b.sources)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// report prints every metric with its unit and sample count, then the
// result line.
func (b *bench) report() {
	for _, name := range b.order {
		m := b.metrics[name]
		n := "exact"
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Printf("%-12s %-36s %14.6g %-6s %s\n", b.workload, name, m.Value, m.Unit, n)
	}
	frac := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Printf("%-12s %-36s %14.6g %-6s n=%d\n", b.workload, "failed_frac", frac, "1", b.attempted)
	// The result line carries the end-to-end metrics of an untraced run
	// or the per-layer metrics of a traced one; the table above has both.
	shown := map[string]metric{}
	for name, m := range b.metrics {
		if m.layer == b.trace && !m.info {
			shown[name] = m
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.problems) == 0, max(b.attempted, 1), b.failed, shown}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

// quantile is the q-quantile of xs, interpolated between the nearest
// order statistics (xs is reordered).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// median of xs (xs is reordered).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// gitCommit names the checkout's commit, when it is a git repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown (" + ref + ")"
}

// since is the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
