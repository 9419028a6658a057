package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
)

// This file expands a normalized Spec into its grid of cells — the cross
// product of the scheme × profile × cohort axes — and gives each cell a
// deterministic identity for the cell-level result cache.
//
// Cells execute cohort-major, then profile, then scheme: a fixed order,
// so progress accounting and rendered output are reproducible. Every cell
// is one independent fleet run over the cell's cohort, which keeps each
// cell's reduction grouping exactly what a single-axis job with the same
// shard count would use — the invariant that makes a grid cell's summary
// byte-identical to the equivalent single job's.

// gridCell is one planned cell: its axis labels, the resolved cohort /
// profile / scheme that realize it, the cell cache key, and its progress
// denominators. The fleet job slice is NOT built here — a grid holds
// every planned cell for the job's lifetime, so cells materialize their
// O(users) job slices lazily (Jobs), one at a time as they run, and
// cache-served cells never build one at all.
type gridCell struct {
	// Scheme, Profile, Cohort are the axis labels keying the cell in
	// results.
	Scheme, Profile, Cohort string
	// Key is the deterministic cell identity: equal keys imply
	// byte-identical cell summaries (same reasoning as the job
	// fingerprint, restricted to one cell).
	Key string

	cohort  fleet.Cohort
	profile power.Profile
	scheme  fleet.Scheme
	// plan is the grid's wait axis (planWaits), shared by every cell of
	// the grid and stamped into each job.
	plan *fleet.WaitPlan

	// NumJobs and Shards are the cell's progress denominators: the fleet
	// run's job count (one per user — each cell is a single scheme) and
	// the shard count it will use under the job's options (the configured
	// count clamped to the job count).
	NumJobs, Shards int
}

// Jobs materializes the cell's fleet run. Every job carries the grid's
// wait plan, so whichever cell of a cohort first reaches a user builds the
// plan's wait table on every profile in one pass, and every other cell
// reads it.
func (c *gridCell) Jobs() []fleet.Job {
	jobs := c.cohort.Jobs(c.profile, []fleet.Scheme{c.scheme})
	for i := range jobs {
		jobs[i].Plan = c.plan
	}
	return jobs
}

// planWaits returns the grid's wait plan: per profile, the StatusQuo
// baseline every job replays (the tail-clamped wait, first) and the rule
// of each scheme whose demote half declares the WaitRule capability and
// has neither a fitted nor a batching half; and the fitted demote halves
// of the WaitRule schemes with no batching half. Only those schemes build
// a policy, once per profile with a nil trace (which gives the Oracle's
// threshold for that profile). A scheme whose factory fails contributes
// nothing; its cells fail on their own.
func planWaits(schemes []fleet.ResolvedScheme, profs []power.ResolvedProfile, opts *sim.Options) *fleet.WaitPlan {
	sets := make([]sim.WaitSet, len(profs))
	for i, pa := range profs {
		rules := append(make([]sim.Wait, 0, 1+len(schemes)), sim.Wait{D: policy.Never})
		for _, rs := range schemes {
			if s := rs.Scheme; s.WaitRule && s.Active == nil && s.DemoteFit.Spec == "" {
				if d, err := s.Demote(nil, pa.Profile); err == nil {
					if r, ok := sim.WaitOf(d); ok {
						rules = append(rules, r)
					}
				}
			}
		}
		sets[i] = sim.WaitSet{Prof: pa.Profile, Rules: rules}
	}
	var fitted []fleet.FitWait
	for _, rs := range schemes {
		if s := rs.Scheme; s.WaitRule && s.Active == nil && s.DemoteFit.Spec != "" {
			fitted = append(fitted, fleet.FitWait{Key: s.DemoteFit, Demote: s.Demote})
		}
	}
	return fleet.NewWaitPlan(sets, fitted, opts)
}

// planFingerprint validates the normalized spec's axes, computes its v4
// fingerprint, and expands its grid cells — all from ONE registry
// resolution per axis value, the only path from a spec to its canonical
// encodings. Axis errors are reported in axis order: schemes, then
// profiles, then cohorts; within an axis, a value that fails to resolve
// or whose label is reserved or duplicated is named by its index.
func (s Spec) planFingerprint(opts fleet.Options) ([]gridCell, string, error) {
	if err := s.checkBounds(); err != nil {
		return nil, "", err
	}
	burstGap := time.Duration(s.BurstGap)

	sas := make([]fleet.ResolvedScheme, len(s.Schemes))
	seen := make(map[string]bool, len(s.Schemes))
	for i, ss := range s.Schemes {
		rs, err := fleet.ResolveScheme(registry(), ss)
		if err != nil {
			return nil, "", fmt.Errorf("jobs: scheme %d: %w", i, err)
		}
		if err := checkLabel("scheme", i, rs.Label, seen); err != nil {
			return nil, "", err
		}
		sas[i] = rs
	}

	pas := make([]power.ResolvedProfile, len(s.Profiles))
	seen = make(map[string]bool, len(s.Profiles))
	for i, ps := range s.Profiles {
		rp, err := ps.Resolution(profiles())
		if err != nil {
			return nil, "", fmt.Errorf("jobs: profile %d: %w", i, err)
		}
		if err := checkLabel("profile", i, rp.Label, seen); err != nil {
			return nil, "", err
		}
		pas[i] = rp
	}

	cas := make([]fleet.ResolvedCohort, len(s.Cohorts))
	seen = make(map[string]bool, len(s.Cohorts))
	simOpts := &sim.Options{BurstGap: burstGap}
	for i, cs := range s.Cohorts {
		// ResolveCohort stamps CacheKeyBase with the cohort canonical, so
		// every cell of this cohort replays the same memoized traffic.
		rc, err := fleet.ResolveCohort(cohorts(), cs, s.Seed, simOpts)
		if err != nil {
			return nil, "", fmt.Errorf("jobs: cohort %d: %w", i, err)
		}
		if err := checkLabel("cohort", i, rc.Label, seen); err != nil {
			return nil, "", err
		}
		cas[i] = rc
	}

	// Both digests hash hand-appended bytes in the v4 layout; every stored
	// cell is addressed by them, so TestFingerprintGolden pins them.
	scalars := make([]byte, 0, 64)
	scalars = append(scalars, "seed="...)
	scalars = strconv.AppendInt(scalars, s.Seed, 10)
	scalars = append(scalars, "|burstgap="...)
	scalars = append(scalars, burstGap.String()...)
	scalars = append(scalars, "|shards="...)
	scalars = strconv.AppendInt(scalars, int64(s.Shards), 10)

	b := make([]byte, 0, 512)
	b = append(b, "v4|"...)
	b = append(b, scalars...)
	b = append(b, "|schemes="...)
	b = strconv.AppendInt(b, int64(len(s.Schemes)), 10)
	b = append(b, "|profiles="...)
	b = strconv.AppendInt(b, int64(len(s.Profiles)), 10)
	b = append(b, "|cohorts="...)
	b = strconv.AppendInt(b, int64(len(s.Cohorts)), 10)
	for _, sa := range sas {
		b = append(b, "|S:"...)
		b = append(b, sa.Canonical...)
	}
	for _, pa := range pas {
		b = append(b, "|P:"...)
		b = append(b, pa.Canonical...)
	}
	for _, ca := range cas {
		b = append(b, "|C:"...)
		b = append(b, ca.Canonical...)
	}
	sum := sha256.Sum256(b)
	fp := hex.EncodeToString(sum[:])

	plan := planWaits(sas, pas, simOpts)
	cells := make([]gridCell, 0, len(s.Schemes)*len(s.Profiles)*len(s.Cohorts))
	for _, ca := range cas {
		for _, pa := range pas {
			for _, sa := range sas {
				cells = append(cells, gridCell{
					Scheme:  sa.Scheme.Name,
					Profile: pa.Profile.Name,
					Cohort:  ca.Label,
					Key:     cellKey(scalars, sa.Canonical, pa.Canonical, ca.Canonical),
					cohort:  ca.Cohort,
					profile: pa.Profile,
					scheme:  sa.Scheme,
					plan:    plan,
					NumJobs: ca.Cohort.Users,
					Shards:  opts.NumShards(ca.Cohort.Users),
				})
			}
		}
	}
	return cells, fp, nil
}

// checkLabel enforces the axis-label rules (no reserved characters, no
// duplicates within an axis — labels key grid cells).
func checkLabel(axis string, i int, label string, seen map[string]bool) error {
	if strings.ContainsAny(label, "|\n") {
		return fmt.Errorf("jobs: %s %d: label %q contains reserved characters", axis, i, label)
	}
	if seen[label] {
		return fmt.Errorf("jobs: %s %d: duplicate label %q (label axis values explicitly)", axis, i, label)
	}
	seen[label] = true
	return nil
}

// singleAxis reports whether the normalized spec's profile and cohort axes
// are both single-valued — the shape whose job-level result renders flat
// (one merged summary keyed by scheme label). Wider
// grids render per cell, because the same scheme label legitimately
// repeats across profile/cohort cells.
func (s Spec) singleAxis() bool {
	return len(s.Profiles) == 1 && len(s.Cohorts) == 1
}

// cellKey digests one cell's computation: the job-level scalars that
// shape every cell (scalars is the pre-rendered "seed=…|burstgap=…|
// shards=…" run, shared across the grid) plus the cell's three canonical
// axis encodings. Labels ride inside the canonicals, which is deliberate —
// a relabeled cell renders different bytes, so it must not share a cache
// entry.
func cellKey(scalars []byte, schemeCanon, profCanon, cohortCanon string) string {
	b := make([]byte, 0, 17+len(scalars)+len(schemeCanon)+len(profCanon)+len(cohortCanon))
	b = append(b, "cell|v4|"...)
	b = append(b, scalars...)
	b = append(b, "|S:"...)
	b = append(b, schemeCanon...)
	b = append(b, "|P:"...)
	b = append(b, profCanon...)
	b = append(b, "|C:"...)
	b = append(b, cohortCanon...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
