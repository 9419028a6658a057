package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/jobs"
	"repro/internal/report"
)

// reference runs spec on an in-process jobs.Manager with one worker and
// every cache off, and returns its result.
func reference(spec jobs.Spec) (*jobs.Result, error) {
	m := jobs.NewManager(jobs.Config{Workers: 1, CacheSize: -1, CellCacheSize: -1})
	defer m.Close()
	j, err := m.Submit(spec)
	if err != nil {
		return nil, err
	}
	<-j.Done()
	if err := j.Err(); err != nil {
		return nil, err
	}
	return j.Result(), nil
}

// referenceResult is a reference run's JSON result, or why there is none.
type referenceResult struct {
	json []byte
	err  error
}

// referenceOf runs spec's reference and renders it.
func referenceOf(spec jobs.Spec) referenceResult {
	res, err := reference(spec)
	if err != nil {
		return referenceResult{err: fmt.Errorf("reference run: %w", err)}
	}
	b, err := res.JSON()
	return referenceResult{b, err}
}

// checkBytes compares a daemon result with the in-process reference of
// the same spec; a mismatch counts as a failed job.
func (b *bench) checkBytes(ref referenceResult, got []byte, what string) {
	want := ref.json
	switch {
	case ref.err != nil:
		b.failed++
		b.fail("%s: %v", what, ref.err)
	case !bytes.Equal(got, want):
		b.failed++
		b.fail("%s: daemon result (%d bytes) differs from the in-process reference (%d bytes)",
			what, len(got), len(want))
	default:
		fmt.Printf("# %s: result bytes match the in-process reference (%d bytes, sha256 %s)\n",
			what, len(got), digest(got))
	}
}

// checkShape checks what can be checked of a result without a reference:
// it parses, has one cell per planned cell in plan order, every cell
// carries a content address and summarizes every user of its cohort.
func checkShape(t timedJob) error {
	var g report.GridStats
	if err := json.Unmarshal(t.Result, &g); err != nil {
		return fmt.Errorf("result does not parse: %w", err)
	}
	if len(g.Cells) != t.plan.cells {
		return fmt.Errorf("result has %d cells, want %d", len(g.Cells), t.plan.cells)
	}
	for i, c := range g.Cells {
		users := len(t.plan.cohorts[i/t.plan.cellsPerCohort].users)
		if len(c.Fingerprint) != 64 || c.Summary.Jobs != int64(users) {
			return fmt.Errorf("cell %d: fingerprint %q, %d jobs, want %d", i, c.Fingerprint, c.Summary.Jobs, users)
		}
	}
	return nil
}

// cellKeys lists the content addresses of a grid result's cells.
func cellKeys(result []byte) ([]string, error) {
	var g report.GridStats
	if err := json.Unmarshal(result, &g); err != nil {
		return nil, err
	}
	keys := make([]string, len(g.Cells))
	for i, c := range g.Cells {
		keys[i] = c.Fingerprint
	}
	return keys, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// guardCounts fails the run when an exact count differs from the one an
// earlier run of the same sources with the same workload, seed and scale
// recorded, so a workload that silently changes shape cannot pass as a
// speed change. Runs of other sources are not compared: a change may cut
// a count such as sim.allocs_per_replay on purpose.
func (b *bench) guardCounts() error {
	path := filepath.Join(b.work, "counts.json")
	all := map[string]map[string]float64{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	key := fmt.Sprintf("%s|seed=%d|smoke=%v|sources=%s", b.workload, b.seed, b.smoke, b.sources)
	prev := all[key]
	if prev == nil {
		prev = map[string]float64{}
		all[key] = prev
	}
	names := make([]string, 0, len(b.counts))
	for name := range b.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := b.counts[name]
		if old, ok := prev[name]; ok && old != v {
			b.fail("count %s = %v, but an earlier run with the same seed measured %v", name, v, old)
			continue
		}
		prev[name] = v
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sourceDigest hashes the daemon's and the benchmark's sources (go.mod,
// cmd/, internal/ and perfbench/), so two runs can be shown to measure the
// same program even outside git.
func sourceDigest(root string) string {
	h := sha256.New()
	for _, dir := range []string{"go.mod", "cmd", "internal", "perfbench"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod")) {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
			h.Write(data)
			return nil
		})
		if err != nil {
			return "unknown (" + err.Error() + ")"
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
