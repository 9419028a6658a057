package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// These tests enforce the refactor's determinism invariant at the engine
// level: replaying a workload materialized (Run on the generated slice)
// and streamed (RunSource on the lazy generator source) with the same seed
// must produce identical Results — every field, including the recorded
// decision and episode logs, bit for bit.

func policyPairs(t *testing.T, prof power.Profile) []struct {
	name   string
	demote func() policy.DemotePolicy
	active func() policy.ActivePolicy
} {
	t.Helper()
	mkIdle := func() policy.DemotePolicy {
		mi, err := policy.NewMakeIdle(prof)
		if err != nil {
			t.Fatal(err)
		}
		return mi
	}
	return []struct {
		name   string
		demote func() policy.DemotePolicy
		active func() policy.ActivePolicy
	}{
		{"statusquo", func() policy.DemotePolicy { return policy.StatusQuo{} }, func() policy.ActivePolicy { return nil }},
		{"makeidle", mkIdle, func() policy.ActivePolicy { return nil }},
		{"makeidle+learn", mkIdle, func() policy.ActivePolicy { return policy.NewLearnedDelay() }},
	}
}

func assertSameResult(t *testing.T, label string, slice, streamed *Result) {
	t.Helper()
	if !reflect.DeepEqual(slice, streamed) {
		t.Fatalf("%s: streamed replay differs from materialized:\nslice:  %+v\nstream: %+v", label, slice, streamed)
	}
}

// TestSourceSliceEquivalenceApps replays every application generator both
// ways under every policy pair.
func TestSourceSliceEquivalenceApps(t *testing.T) {
	prof := power.Verizon3G
	opts := &Options{RecordDecisions: true, RecordEpisodes: true}
	for _, app := range workload.Apps() {
		for _, pp := range policyPairs(t, prof) {
			tr := workload.Generate(app, 21, time.Hour)
			slice, err := Run(tr, prof, pp.demote(), pp.active(), opts)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := RunSource(workload.Stream(app, 21, time.Hour), prof, pp.demote(), pp.active(), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, app.Name()+"/"+pp.name, slice, streamed)
		}
	}
}

// TestSourceSliceEquivalenceUsers covers the multi-app merge and the
// diurnal day-mask on user mixes.
func TestSourceSliceEquivalenceUsers(t *testing.T) {
	prof := power.VerizonLTE
	opts := &Options{}
	users := workload.Verizon3GUsers()
	cases := []workload.User{users[0], users[4], workload.DayUser(users[1])}
	for _, u := range cases {
		for _, pp := range policyPairs(t, prof) {
			d := 3 * time.Hour
			slice, err := Run(u.Generate(77, d), prof, pp.demote(), pp.active(), opts)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := RunSource(u.Stream(77, d), prof, pp.demote(), pp.active(), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, u.Name+"/"+pp.name, slice, streamed)
		}
	}
}

// TestRunSourceValidatesInline: streaming replay rejects exactly the
// traces the slice API rejects, with the same sentinel errors.
func TestRunSourceValidatesInline(t *testing.T) {
	prof := power.Verizon3G
	bad := map[string]trace.Trace{
		"unsorted":      {{T: time.Second, Dir: trace.In, Size: 1}, {T: 0, Dir: trace.In, Size: 1}},
		"negative-size": {{T: 0, Dir: trace.In, Size: -1}},
		"bad-direction": {{T: 0, Dir: trace.Direction(9), Size: 1}},
	}
	for name, tr := range bad {
		if _, err := RunSource(tr.Source(), prof, policy.StatusQuo{}, nil, nil); err == nil {
			t.Errorf("%s: streamed replay accepted invalid trace", name)
		}
		if _, err := Run(tr, prof, policy.StatusQuo{}, nil, nil); err == nil {
			t.Errorf("%s: slice replay accepted invalid trace", name)
		}
	}
}

// TestEngineDropsSourceAfterRunSource: a pooled/idle engine must not pin
// the caller's source (and through it the trace or generator state) after
// a run completes — Reset nils the window's source reference.
func TestEngineDropsSourceAfterRunSource(t *testing.T) {
	e := NewEngine()
	tr := trace.Trace{{T: 0, Dir: trace.In, Size: 1}, {T: time.Second, Dir: trace.In, Size: 1}}
	if _, err := e.RunSource(tr.Source(), power.Verizon3G, policy.StatusQuo{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if e.window.src != nil {
		t.Fatal("window.src still set after successful RunSource")
	}
}

// TestRunSourceEmpty: an empty source yields the same empty Result as an
// empty trace.
func TestRunSourceEmpty(t *testing.T) {
	prof := power.Verizon3G
	slice, err := Run(nil, prof, policy.StatusQuo{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunSource(trace.Trace{}.Source(), prof, policy.StatusQuo{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "empty", slice, streamed)
}
