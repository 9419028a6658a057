package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sizes fixes how much work one job does. The full sizes make jobs of
// seconds; the smoke sizes take every workload through the same path in
// a fraction of that, for the benchmark's own tests.
type sizes struct {
	paperUsers     int    // paper-grid cohort size
	paperDuration  string // paper-grid per-user trace length
	tailUsers      int    // tail-sweep users per cohort
	tailDuration   string
	resumeCohorts  int // resume cohorts: 1..resumeCohorts users each
	resumeDuration string
	sideStarts     int // daemon starts after each grid job, for restart_s
	setups         int // set-ups per run, for setup_s (resume: store populations)
}

var fullSizes = sizes{
	paperUsers: 6, paperDuration: "24h",
	tailUsers: 14, tailDuration: "24h",
	resumeCohorts: 16, resumeDuration: "1h",
	sideStarts: 8, setups: 3,
}

var smokeSizes = sizes{
	paperUsers: 1, paperDuration: "1h",
	tailUsers: 1, tailDuration: "1h",
	resumeCohorts: 2, resumeDuration: "1h",
	sideStarts: 2, setups: 2,
}

func demote(name string, params map[string]any) fleet.SchemeSpec {
	return fleet.SchemeSpec{Policy: policy.Spec{Name: name, Params: params}}
}

func fixedTail(wait string) fleet.SchemeSpec {
	return demote("fixedtail", map[string]any{"wait": wait})
}

func profileList(names ...string) []power.ProfileSpec {
	out := make([]power.ProfileSpec, len(names))
	for i, n := range names {
		out[i] = power.ProfileSpec{Name: n}
	}
	return out
}

func cohort(family string, users int, duration string) fleet.CohortSpec {
	return fleet.CohortSpec{Name: family, Params: map[string]any{"users": users, "duration": duration}}
}

var allProfiles = profileList("verizon-3g", "verizon-lte", "tmobile-3g", "att-hspa+")

// paperGrid is the paper's own evaluation (Figs. 10-12): the status quo,
// the fixed 4.5 s tail, the 95% IAT baseline, MakeIdle and MakeIdle with
// the learning MakeActive, on Verizon 3G and LTE, over one study-3g day.
func paperGrid(z sizes, seed int64) jobs.Spec {
	return jobs.Spec{Seed: seed,
		Schemes: []fleet.SchemeSpec{
			demote("statusquo", nil),
			fixedTail("4.5s"),
			demote("95iat", nil),
			demote("makeidle", nil),
			{Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: "learn"}},
		},
		Profiles: profileList("verizon-3g", "verizon-lte"),
		Cohorts:  []fleet.CohortSpec{cohort("study-3g", z.paperUsers, z.paperDuration)},
	}
}

// tailSweep sweeps the constant-wait schemes over every carrier and both
// study mixes: no MakeIdle, so the policy layer's only work is the 95iat
// fit.
func tailSweep(z sizes, seed int64) jobs.Spec {
	var schemes []fleet.SchemeSpec
	for _, w := range []string{"1s", "2s", "3s", "4.5s", "6s", "8s"} {
		schemes = append(schemes, fixedTail(w))
	}
	schemes = append(schemes, demote("oracle", nil), demote("95iat", nil))
	return jobs.Spec{Seed: seed, Schemes: schemes, Profiles: allProfiles,
		Cohorts: []fleet.CohortSpec{
			cohort("study-3g", z.tailUsers, z.tailDuration),
			cohort("study-lte", z.tailUsers, z.tailDuration),
		},
	}
}

// storedWaits are the resume store's fixed-tail waits; the mixed grid
// keeps the first half and replaces the rest with newWaits.
var (
	storedWaits = []string{"1s", "2s", "3s", "4.5s", "6s", "8s", "10s", "12s"}
	newWaits    = []string{"1.5s", "2.5s", "3.5s", "5s"}
)

func resumeGrid(z sizes, seed int64, waits []string) jobs.Spec {
	s := jobs.Spec{Seed: seed, Profiles: allProfiles}
	for _, w := range waits {
		s.Schemes = append(s.Schemes, fixedTail(w))
	}
	for u := 1; u <= z.resumeCohorts; u++ {
		s.Cohorts = append(s.Cohorts, cohort("study-3g", u, z.resumeDuration))
	}
	return s
}

// resumeStored is the grid set-up writes to the store.
func resumeStored(z sizes, seed int64) jobs.Spec { return resumeGrid(z, seed, storedWaits) }

// resumeMixed shares half its cells with resumeStored.
func resumeMixed(z sizes, seed int64) jobs.Spec {
	return resumeGrid(z, seed, append(append([]string{}, storedWaits[:4]...), newWaits...))
}

// jobSeeds derives the run's job seeds from the workload seed: a fresh
// seed per job, so no job is served from a cache, and the same list on
// every run with that seed.
func jobSeeds(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	out := make([]int64, 0, n)
	for len(out) < n {
		s := 1 + r.Int63n(1<<40)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// userLoad is one simulated user of a job: the source constructor the
// daemon's fleet uses for it, and its packet count.
type userLoad struct {
	job     fleet.Job
	packets int64
}

// cohortLoad is one cohort of a job, drained at set-up.
type cohortLoad struct {
	label   string
	users   []userLoad
	packets int64
}

// plannedJob is one job's request body and the work it implies.
type plannedJob struct {
	body           []byte
	spec           jobs.Spec // body decoded exactly as the daemon decodes it
	cells          int
	cellsPerCohort int
	users          int
	cohorts        []cohortLoad
	packets        int64 // Σ over cohorts of the cohort's packets
}

// plan encodes spec as the request body and drains every user's generator
// to count the packets one cell of each cohort replays.
func plan(spec jobs.Spec) (plannedJob, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return plannedJob{}, err
	}
	p := plannedJob{body: body}
	if err := json.Unmarshal(body, &p.spec); err != nil {
		return p, err
	}
	p.cellsPerCohort = len(p.spec.Schemes) * len(p.spec.Profiles)
	p.cells = p.cellsPerCohort * len(p.spec.Cohorts)
	opts := &sim.Options{BurstGap: time.Second}
	for _, cs := range p.spec.Cohorts {
		rc, err := fleet.ResolveCohort(workload.Cohorts(), cs, p.spec.Seed, opts)
		if err != nil {
			return p, err
		}
		cl := cohortLoad{label: rc.Label}
		for _, j := range rc.Cohort.Jobs(power.Profile{}, []fleet.Scheme{fleet.StatusQuoScheme()}) {
			n, err := drain(j.Source(j.Seed))
			if err != nil {
				return p, fmt.Errorf("cohort %s seed %d: %w", rc.Label, j.Seed, err)
			}
			cl.users = append(cl.users, userLoad{job: j, packets: n})
			cl.packets += n
		}
		p.users += len(cl.users)
		p.packets += cl.packets
		p.cohorts = append(p.cohorts, cl)
	}
	return p, nil
}

// packetCells is the packets replayed by executing n cells of every
// cohort.
func (p plannedJob) packetCells(cellsPerCohort int) int64 {
	return p.packets * int64(cellsPerCohort)
}

func drain(src trace.Source) (int64, error) {
	var n int64
	for {
		_, ok, err := src.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}
