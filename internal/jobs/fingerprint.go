package jobs

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/workload"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("4h30m"), so job specs read naturally over the HTTP API. Integer
// nanoseconds are also accepted on input.
type Duration time.Duration

// MarshalJSON renders the duration as its canonical Go string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a Go duration string or nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("jobs: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("jobs: duration must be a string or nanoseconds: %w", err)
	}
	*d = Duration(n)
	return nil
}

// registry is the policy registry every job spec resolves against.
func registry() *policy.Registry { return policy.Default() }

// profiles is the carrier-profile registry every job spec resolves against.
func profiles() *power.Registry { return power.Default() }

// cohorts is the cohort registry every job spec resolves against.
func cohorts() *workload.CohortRegistry { return workload.Cohorts() }

// Spec describes one replay job as a sweep grid over the paper's three
// experiment axes: dormancy schemes × carrier profiles × synthetic
// cohorts. The cross product executes as one deterministic fleet run per
// cell (every cell of a cohort replays the identical streamed population),
// so each cell's summary is byte-identical to the equivalent single-axis
// job's. A Spec is the entire job input — two Specs with equal canonical
// axis encodings and equal scalar fields denote the same computation,
// which is what makes the fingerprint a sound cache key.
//
// Every axis value is a parameterized spec resolved against its registry;
// alternate spellings ("95iat", "Verizon 3G") live there as aliases. Each
// axis must hold at least one value.
type Spec struct {
	// Seed roots every per-user trace seed (fleet.UserSeed spacing). It is
	// job-level state shared by every grid cell, so the same cohort axis
	// value replays the identical population in every cell.
	Seed int64 `json:"seed"`
	// Schemes lists the scheme axis values, e.g.
	// {"policy": {"name": "makeidle"}, "active": {"name": "learn"}}; see
	// GET /v1/policies.
	Schemes []fleet.SchemeSpec `json:"schemes"`
	// Profiles lists the carrier-profile axis values, e.g.
	// {"name": "verizon-lte", "params": {"t1": "5s"}}; see GET
	// /v1/profiles.
	Profiles []power.ProfileSpec `json:"profiles"`
	// Cohorts lists the cohort axis values, e.g.
	// {"name": "study-3g", "params": {"users": 1000}}; see GET
	// /v1/workloads.
	Cohorts []fleet.CohortSpec `json:"cohorts"`
	// BurstGap is the session segmentation gap applied to every cell's
	// replay (default 1s). It also seeds the "fix" active policy's
	// burstgap parameter for schemes that do not set their own.
	BurstGap Duration `json:"burst_gap"`
	// Shards is the aggregate partition count (default
	// fleet.DefaultShards). Part of the fingerprint: the shard count fixes
	// the floating-point reduction grouping, so two runs that differ only
	// in shards may differ in float rounding and must not share a cache
	// entry.
	Shards int `json:"shards"`
}

// withDefaults returns the normalized spec: every optional scalar
// resolved to its default and the job burst gap threaded into the
// schemes, so equal jobs normalize to equal specs.
func (s Spec) withDefaults() Spec {
	if s.BurstGap <= 0 {
		s.BurstGap = Duration(time.Second)
	}
	if s.Shards <= 0 {
		s.Shards = fleet.DefaultShards
	}
	// The job's burst gap seeds the trace-fitted MakeActive bound for
	// schemes that do not pin their own, exactly as the CLI does.
	// Injection happens here, during normalization, so the canonical
	// encodings the fingerprint hashes describe the computation that
	// actually runs.
	schemes := make([]fleet.SchemeSpec, len(s.Schemes))
	for i, ss := range s.Schemes {
		schemes[i] = withSchemeBurstGap(ss, time.Duration(s.BurstGap))
	}
	s.Schemes = schemes
	return s
}

// withSchemeBurstGap threads the job burst gap into a scheme's active
// spec via the shared fleet.WithFixBurstGap rule.
func withSchemeBurstGap(ss fleet.SchemeSpec, burstGap time.Duration) fleet.SchemeSpec {
	if ss.Active == nil {
		return ss
	}
	active := fleet.WithFixBurstGap(*ss.Active, burstGap)
	ss.Active = &active
	return ss
}

// Admission bounds on a single job: a spec is one HTTP request, so its
// resource footprint must be bounded before it reaches a runner. The
// cohort schemas bound each cohort's users and duration; MaxShards bounds
// the partial accumulator array (the fleet clamps shards to the job count
// anyway); MaxSchemes/MaxProfiles/MaxCohorts bound each axis and MaxCells
// bounds the grid's total replay multiplier.
const (
	MaxShards   = 1 << 16
	MaxSchemes  = 64
	MaxProfiles = 16
	MaxCohorts  = 16
	MaxCells    = 512
)

// checkBounds enforces the scalar admission bounds on a normalized spec:
// every axis non-empty and within its limit, and the grid within MaxCells.
func (s Spec) checkBounds() error {
	for _, axis := range []struct {
		name     string
		len, max int
	}{
		{"schemes", len(s.Schemes), MaxSchemes},
		{"profiles", len(s.Profiles), MaxProfiles},
		{"cohorts", len(s.Cohorts), MaxCohorts},
	} {
		if axis.len == 0 {
			return fmt.Errorf("jobs: %s must list at least one value", axis.name)
		}
		if axis.len > axis.max {
			return fmt.Errorf("jobs: %d %s exceeds the limit of %d", axis.len, axis.name, axis.max)
		}
	}
	if s.Shards > MaxShards {
		return fmt.Errorf("jobs: shards %d exceeds the limit of %d", s.Shards, MaxShards)
	}
	if cells := len(s.Schemes) * len(s.Profiles) * len(s.Cohorts); cells > MaxCells {
		return fmt.Errorf("jobs: grid of %d cells exceeds the limit of %d", cells, MaxCells)
	}
	return nil
}

// Fingerprint is the deterministic cache key of the normalized spec:
// sha256 over (seed, burst gap, shards, axis sizes) plus the canonical
// encoding of every axis value — label, resolved canonical name and every
// parameter value in registry declaration order, for all three axes — so
// the key is stable across param-map ordering, alias spelling and omitted
// defaults, and moves whenever any axis value (or list, or its order)
// changes. Equal fingerprints imply byte-identical results, because the
// computation is deterministic given the spec and the shard count is part
// of the key. This is fingerprint v4: v3 hashed only the scheme axis plus
// a flat profile name and cohort scalars.
//
// It is the digest Submit computes (planFingerprint), so a spec that
// Submit would reject — an unresolvable axis value, a duplicate label, a
// grid over the admission bounds — has no fingerprint and returns the
// same error.
func (s Spec) Fingerprint() (string, error) {
	s = s.withDefaults()
	_, fp, err := s.planFingerprint(fleet.Options{Shards: s.Shards})
	return fp, err
}
