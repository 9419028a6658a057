package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// These tests pin the engine's fast paths to its generic one: a policy
// WaitOf recognizes, replayed without batching or logs, runs as a
// one-rule RunWaits pass, and any other policy without batching skips
// burst assembly; both are optimizations, never a behaviour change.
// forceGeneric is the test seam that disables them, so every policy
// replays through Decide/Observe over the same packets.

// TestFastPathMatchesGenericAllSchemes replays every registered demote
// scheme — at default parameters — through a fast-path engine and a
// forced-generic engine, and requires bit-identical Results, with and
// without the decision and episode logs and with batching off and on.
// Without logs or batching the wait-rule policies take the RunWaits pass.
// Iterating the registry (not a hand-kept list) means a newly registered
// scheme is covered the day it lands: if its policy type is ever added
// to WaitOf incorrectly, this test is the tripwire.
func TestFastPathMatchesGenericAllSchemes(t *testing.T) {
	reg := policy.Default()
	for _, prof := range []power.Profile{power.Verizon3G, power.VerizonLTE} {
		for _, schema := range reg.Schemas(policy.RoleDemote) {
			u := workload.Verizon3GUsers()[1]
			tr := u.Generate(33, time.Hour)
			mk := func() policy.DemotePolicy {
				d, err := reg.BuildDemote(policy.Spec{Name: schema.Name}, tr, prof)
				if err != nil {
					t.Fatalf("%s/%s: build: %v", prof.Name, schema.Name, err)
				}
				return d
			}
			for _, opts := range []*Options{nil, {RecordDecisions: true, RecordEpisodes: true}} {
				for _, active := range []func() policy.ActivePolicy{
					func() policy.ActivePolicy { return nil },
					func() policy.ActivePolicy { return policy.NewLearnedDelay() },
				} {
					fastRes, err := NewEngine().Run(tr, prof, mk(), active(), opts)
					if err != nil {
						t.Fatalf("%s/%s: fast path: %v", prof.Name, schema.Name, err)
					}
					genRes, err := genericEngine().Run(tr, prof, mk(), active(), opts)
					if err != nil {
						t.Fatalf("%s/%s: generic path: %v", prof.Name, schema.Name, err)
					}
					label := fmt.Sprintf("%s/%s/%s/logs=%t", prof.Name, schema.Name, fastRes.Active, opts != nil)
					assertSameResult(t, label, genRes, fastRes)
				}
			}
		}
	}
}

// TestEngineReuseAfterError runs a valid replay, then a replay that fails
// mid-stream (unsorted timestamps discovered at the offending packet), then
// the valid replay again on the same engine. The post-error run must be
// byte-identical to a fresh engine's: an aborted replay may leave no state
// behind.
func TestEngineReuseAfterError(t *testing.T) {
	prof := power.Verizon3G
	tr := workload.Verizon3GUsers()[0].Generate(5, 30*time.Minute)
	opts := &Options{RecordDecisions: true}
	mkIdle := func() policy.DemotePolicy {
		mi, err := policy.NewMakeIdle(prof)
		if err != nil {
			t.Fatal(err)
		}
		return mi
	}
	bad := trace.Trace{
		{T: time.Second, Dir: trace.In, Size: 1},
		{T: 0, Dir: trace.In, Size: 1},
	}

	e := NewEngine()
	if _, err := e.Run(tr, prof, mkIdle(), policy.NewLearnedDelay(), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunSource(bad.Source(), prof, policy.StatusQuo{}, nil, nil); err == nil {
		t.Fatal("unsorted source accepted")
	}
	got, err := e.Run(tr, prof, mkIdle(), policy.NewLearnedDelay(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(tr, prof, mkIdle(), policy.NewLearnedDelay(), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "post-error reuse", want, got)
}
