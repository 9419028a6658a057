// Command experiments regenerates the paper's tables and figures from the
// synthetic workload substrate.
//
// Usage:
//
//	experiments -list
//	experiments -run fig9
//	experiments -run all -seed 3 -user-duration 8h
//	experiments -run fleet -users 1000 -parallel 0 -shards 64
//	experiments -run sweep -users 100    # dormancy-tail grid via policy specs
//
// Output is text: tables whose rows correspond to the bars/points of the
// paper's figures. docs/architecture.md ("Experiments and the paper's
// artifacts") maps each ID to its figure and source file.
//
// Every experiment fans its replays across the fleet runtime; -parallel
// bounds the worker count (results are identical for any value), -users
// sizes the fleet experiment's cohort, and -shards fixes the aggregate
// partitioning.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		run      = flag.String("run", "all", "experiment id (e.g. fig9) or 'all'")
		list     = flag.Bool("list", false, "list experiment ids")
		seed     = flag.Int64("seed", 1, "workload seed")
		appDur   = flag.Duration("app-duration", 2*time.Hour, "per-application trace length")
		userDur  = flag.Duration("user-duration", 4*time.Hour, "per-user trace length")
		users    = flag.Int("users", 0, "cohort size of the fleet experiment (0 = default 24; try 1000+)")
		parallel = flag.Int("parallel", 0, "fleet replay workers (0 = all cores, 1 = serial; never changes results)")
		shards   = flag.Int("shards", 0, "fleet aggregate shards (0 = fixed default; changes only float grouping)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{
		Seed: *seed, AppDuration: *appDur, UserDuration: *userDur,
		Users: *users, Workers: *parallel, Shards: *shards,
	}

	// Pick from one list, so the experiments run share its carrier grid.
	all := experiments.All()
	todo := all
	if *run != "all" {
		todo = nil
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(all, func(e experiments.Experiment) bool { return e.ID == id })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "experiments: unknown id %q (use -list)\n", id)
				os.Exit(1)
			}
			todo = append(todo, all[i])
		}
	}

	for _, e := range todo {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		out, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
