package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// runResume runs the store workload. Set-up fills a durable store with
// the resume grid; each iteration then restarts the daemon over a fresh
// clone of that store, resubmits the stored grid (every cell a store read)
// and submits a grid of which half the cells are stored and half are new
// (executed and written). The in-memory cell cache is off, so every
// stored cell is read from the store; each iteration starts from the same
// store, so restart times do not drift with the store's growth. Every
// store lives in its own directory until the run ends.
func runResume(b *bench) error {
	dir := filepath.Join(b.work, "resume")
	if err := removeAll(dir); err != nil {
		return err
	}
	defer removeAll(dir)
	seed := jobSeeds(b.seed, 1)[0]
	stored, err := plan(resumeStored(b.z, seed))
	if err != nil {
		return err
	}
	mixed, err := plan(resumeMixed(b.z, seed))
	if err != nil {
		return err
	}
	newPerCohort := len(newWaits) * len(mixed.spec.Profiles)
	args := func(store string) []string {
		return []string{"-store-dir", store, "-cell-cache-size", "-1"}
	}

	// Both grids' references run in this process while the daemon
	// populates the store. Every iteration submits the same two specs, so
	// every result is checked against them.
	refs := make(chan [2]referenceResult, 1)
	go func() { refs <- [2]referenceResult{referenceOf(stored.spec), referenceOf(mixed.spec)} }()
	// A setup_s sample is one store population: exec to ready plus the job
	// that fills the store, net of stolen time. Set-up populates b.z.setups
	// stores, keeps the first and reports the median.
	var setup []float64
	var populated [][]byte
	populate := func(store string) error {
		d, dt, err := startDaemon(b.daemon, args(store))
		if err != nil {
			return err
		}
		b.attempted++
		r, err := d.runJob(stored.body, nil)
		if err == nil {
			err = d.stop()
		} else {
			d.stop()
		}
		if err != nil {
			return fmt.Errorf("populating the store: %w", err)
		}
		setup = append(setup, dt.Seconds()+r.busy())
		populated = append(populated, r.Result)
		return nil
	}
	pristine := filepath.Join(dir, "pristine")
	err = populate(pristine)
	refPair := <-refs
	if err != nil {
		return err
	}
	if err := firstErr(refPair[0].err, refPair[1].err); err != nil {
		return err
	}
	refStored, refMixed := refPair[0].json, refPair[1].json
	for k := 1; k < b.z.setups; k++ {
		if err := populate(filepath.Join(dir, fmt.Sprintf("extra-%d", k))); err != nil {
			return err
		}
	}
	for i, got := range populated {
		if !bytes.Equal(got, refStored) {
			b.failed++
			b.fail("population %d: daemon result differs from the in-process reference", i)
		}
	}
	fmt.Printf("# store seed=%d cohorts=%d users=%d cells=%d packets=%d (one cell per cohort)\n",
		seed, len(stored.cohorts), stored.users, stored.cells, stored.packets)

	var lay *layers
	if b.trace {
		keys, err := cellKeys(refStored)
		if err != nil {
			return err
		}
		if lay, err = measureLayers(b, mixed, &storeInputs{dir: pristine, keys: keys}); err != nil {
			return err
		}
	}

	var tr *tracer
	if b.trace {
		tr = newTracer()
	}
	var timed []timedJob
	var restart []float64
	var cpu float64
	t0 := time.Now()
	for it := 0; it <= 1 || since(t0) < b.seconds; it++ {
		if it == 1 {
			t0 = time.Now() // iteration 0 is the discarded warm-up
		}
		iter := filepath.Join(dir, fmt.Sprintf("iteration-%d", it))
		if err := cloneStore(pristine, iter); err != nil {
			return err
		}
		jt := tr
		if it%2 == 0 {
			jt = nil
		}
		d, dt, err := startDaemon(b.daemon, args(iter))
		if err != nil {
			return err
		}
		c0, err := d.cpuSeconds()
		if err != nil {
			d.stop()
			return err
		}
		var runs []timedJob
		for _, j := range []struct {
			kind     string
			p        plannedJob
			ref      []byte
			executed int
			packets  int64
		}{
			{"resubmit", stored, refStored, 0, 0},
			{"mixed", mixed, refMixed, newPerCohort * len(mixed.cohorts), mixed.packetCells(newPerCohort)},
		} {
			b.attempted++
			r, err := d.runJob(j.p.body, jt)
			if err != nil {
				b.failed++
				b.fail("iteration %d %s: %v", it, j.kind, err)
				continue
			}
			if !bytes.Equal(r.Result, j.ref) {
				b.failed++
				b.fail("iteration %d %s: daemon result differs from the in-process reference", it, j.kind)
			}
			runs = append(runs, timedJob{jobRun: r, plan: j.p, executed: j.executed, kind: j.kind,
				packets: j.packets, traced: jt != nil, unit: it})
		}
		c1, err1 := d.cpuSeconds()
		err2 := d.stop()
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		if it == 0 || len(runs) < 2 {
			continue
		}
		restart = append(restart, dt.Seconds())
		cpu += c1 - c0
		timed = append(timed, runs...)
		fmt.Printf("# iteration %d restart_s=%.4f resubmit_s=%.4f mixed_s=%.4f\n",
			it, dt.Seconds(), runs[0].Seconds, runs[len(runs)-1].Seconds)
	}
	if len(timed) == 0 {
		return fmt.Errorf("no timed iteration succeeded")
	}
	if len(b.problems) == 0 {
		fmt.Printf("# every resubmission and mixed grid matched its in-process reference byte for byte (sha256 %s, %s)\n",
			digest(refStored), digest(refMixed))
	}
	b.endToEnd(timed, setup, restart, cpu)
	b.httpCounts(timed)
	if lay != nil {
		lay.finish(b, timed, tr)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// removeAll removes path and commits the removal to disk at once. Stores
// are not removed until the run ends: freed blocks are discarded when the
// file system commits the removal, and that commit would otherwise land
// inside a later timed fsync.
func removeAll(path string) error {
	if err := os.RemoveAll(path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// cloneStore makes dst a store with src's contents. A store writes each
// cell record once (temp file, fsync, rename) and never changes it in
// place, so the records under cells/ are hard-linked; the other files,
// such as the appended index journal, are copied.
func cloneStore(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		switch {
		case e.IsDir():
			return os.MkdirAll(target, 0o755)
		case filepath.Dir(rel) == "cells":
			return os.Link(path, target)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
