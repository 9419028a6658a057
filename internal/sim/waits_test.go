package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The fused wait-rule pass (RunWaits) promises each rule exactly the
// scalars of its own replay. These tests hold it to K separate replays
// on a forced-generic engine, which decides through each policy's
// Decide rather than through RunWaits, field by field and bit for bit.

var carriers = []power.Profile{power.TMobile3G, power.ATTHSPAPlus, power.Verizon3G, power.VerizonLTE}

// constWaits are constant-wait rules.
func constWaits(ws ...time.Duration) []Wait {
	rules := make([]Wait, len(ws))
	for i, w := range ws {
		rules[i] = Wait{D: w}
	}
	return rules
}

// rulePolicy is the built-in policy that decides by the rule r.
func rulePolicy(r Wait) policy.DemotePolicy {
	switch {
	case r.Oracle:
		return policy.NewOracle(r.D)
	case r.D == policy.Never:
		return policy.StatusQuo{}
	}
	return &policy.FixedTail{Wait: r.D}
}

// genericEngine returns an engine that replays every policy through its
// Decide/Observe interface: the reference RunWaits is held to.
func genericEngine() *Engine {
	e := NewEngine()
	e.forceGeneric = true
	return e
}

// checkRunWaits replays tr once per (set, rule) on a forced-generic
// engine and once through RunWaits, and requires the same scalars in
// every Result (TotalJ compared by its bits too) or the same error at the
// same packet.
func checkRunWaits(t testing.TB, label string, tr trace.Trace, sets ...WaitSet) {
	t.Helper()
	e := genericEngine()
	want := make([][]Result, len(sets))
	got := make([][]Result, len(sets))
	for g, set := range sets {
		want[g] = make([]Result, len(set.Rules))
		got[g] = make([]Result, len(set.Rules))
	}
	var wantErr error
	for g, set := range sets {
		for i, w := range set.Rules {
			if wantErr = e.RunSourceInto(&want[g][i], tr.Source(), set.Prof, rulePolicy(w), nil, nil); wantErr != nil {
				break
			}
		}
		if wantErr != nil {
			break
		}
	}
	err := NewEngine().RunWaits(tr.Source(), sets, nil, got)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: RunWaits error %v, replay error %v", label, err, wantErr)
		}
		return
	}
	// The data energy is energy.TxJ summed in packet order, whatever the
	// transmission memos of the replays and the pass remember.
	for g, set := range sets {
		var dataJ float64
		for _, p := range tr {
			dataJ += energy.TxJ(&set.Prof, p.Size, p.Dir == trace.Out)
		}
		for i := range set.Rules {
			if math.Float64bits(want[g][i].Breakdown.DataJ) != math.Float64bits(dataJ) {
				t.Fatalf("%s: set %d (%s) replay data energy %v, want %v", label, g, set.Prof.Name, want[g][i].Breakdown.DataJ, dataJ)
			}
		}
	}
	for g, set := range sets {
		for i := range set.Rules {
			if got[g][i].Policy != "" {
				t.Fatalf("%s: RunWaits stamped Policy %q", label, got[g][i].Policy)
			}
			got[g][i].Policy = want[g][i].Policy
			if !reflect.DeepEqual(want[g][i], got[g][i]) ||
				math.Float64bits(want[g][i].TotalJ()) != math.Float64bits(got[g][i].TotalJ()) {
				t.Fatalf("%s: set %d (%s) wait %v differs from its replay:\nreplay: %+v\nfused:  %+v",
					label, g, set.Prof.Name, set.Rules[i], want[g][i], got[g][i])
			}
		}
	}
}

// edgeSets are the carriers under their edge rules one at a time, all
// four in one pass, three sets with a duplicate profile whose second
// copy has its rules reversed, and two sets whose rules are interleaved:
// Oracle and constant rules alternate, out of wait order, duplicates
// apart, so each Result must land at its caller's position.
func edgeSets() [][]WaitSet {
	var out [][]WaitSet
	all := make([]WaitSet, len(carriers))
	for i, prof := range carriers {
		all[i] = WaitSet{prof, edgeWaits(prof)}
		out = append(out, []WaitSet{all[i]})
	}
	rev := slices.Clone(all[2].Rules)
	slices.Reverse(rev)
	return append(out, all, []WaitSet{all[2], all[0], {carriers[2], rev}},
		[]WaitSet{{carriers[1], interleave(all[1].Rules)}, {carriers[3], interleave(all[3].Rules)}})
}

// interleave takes rules alternately from the front and the back of rs:
// edgeWaits lists its constant rules first, so the result alternates
// constant and Oracle rules, with waits out of order.
func interleave(rs []Wait) []Wait {
	out := make([]Wait, 0, len(rs))
	for i, j := 0, len(rs)-1; i <= j; i, j = i+1, j-1 {
		out = append(out, rs[i])
		if i != j {
			out = append(out, rs[j])
		}
	}
	return out
}

// mixedTrace is n packets whose sizes and directions repeat and change
// in streaks (so the transmission memo both hits and misses), over gaps
// from within a burst to past every tail.
func mixedTrace(seed int64, n int) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{1400, 52, 0, 9000, 576}
	gaps := []time.Duration{0, 10 * time.Millisecond, 500 * time.Millisecond, 1500 * time.Millisecond,
		3 * time.Second, 4500 * time.Millisecond, 7 * time.Second, 20 * time.Second}
	tr := make(trace.Trace, n)
	size, dir := sizes[0], trace.Out
	var at time.Duration
	for i := range tr {
		if rng.Intn(3) == 0 {
			size = sizes[rng.Intn(len(sizes))]
		}
		if rng.Intn(4) == 0 {
			dir ^= 1
		}
		at += gaps[rng.Intn(len(gaps))] + time.Duration(rng.Intn(3))*time.Millisecond
		tr[i] = trace.Packet{T: at, Dir: dir, Size: size}
	}
	return tr
}

// edgeWaits are the rules every carrier is checked under: constant waits
// of zero, negative, the tail itself, beyond the tail, Never, duplicates
// and a few in range, and Oracle rules with thresholds at zero, below, at
// and above the tail, the carrier's t_threshold, negative and Never.
func edgeWaits(prof power.Profile) []Wait {
	tail := prof.Tail()
	rules := constWaits(0, -time.Second, tail, tail+time.Second, policy.Never,
		2*time.Second, 2*time.Second, 50*time.Millisecond, 4500*time.Millisecond, tail-1, tail)
	for _, th := range []time.Duration{0, time.Second, tail, tail + time.Second, energy.Threshold(&prof),
		-time.Second, policy.Never, time.Second} {
		rules = append(rules, Wait{Oracle: true, D: th})
	}
	return rules
}

// TestRunWaitsMatchesReplays covers empty, one- and two-packet traces,
// generated user traffic and gaps at the rules' edges on all four
// carriers under the edge rules, plus every kind of invalid packet at
// several positions.
func TestRunWaitsMatchesReplays(t *testing.T) {
	pkt := func(sec float64, dir trace.Direction, size int) trace.Packet {
		return trace.Packet{T: time.Duration(sec * float64(time.Second)), Dir: dir, Size: size}
	}
	users := workload.Verizon3GUsers()
	traces := map[string]trace.Trace{
		"empty":       nil,
		"one-packet":  {pkt(3, trace.Out, 1400)},
		"two-close":   {pkt(0, trace.Out, 80), pkt(0.2, trace.In, 1400)},
		"two-far":     {pkt(1, trace.In, 1400), pkt(40, trace.Out, 52)},
		"two-equal-t": {pkt(5, trace.In, 0), pkt(5, trace.In, 9000)},
		"user0-1h":    users[0].Generate(7, time.Hour),
		"user1-day":   workload.DayUser(users[1]).Generate(8, 24*time.Hour),
		"mixed":       mixedTrace(5, 600),
		"alternating": {pkt(0, trace.Out, 1400), pkt(1, trace.In, 1400), pkt(2, trace.Out, 1400),
			pkt(9, trace.Out, 52), pkt(9.5, trace.In, 1400), pkt(30, trace.In, 1400), pkt(31, trace.Out, 52),
			pkt(40, trace.Out, 52), pkt(41, trace.In, 52), pkt(70, trace.In, 52)},
	}
	valid := users[2].Generate(9, 20*time.Minute)
	for _, at := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		for kind, breakIt := range map[string]func(*trace.Packet, trace.Packet){
			"unsorted":  func(p *trace.Packet, prev trace.Packet) { p.T = prev.T - time.Millisecond },
			"negative":  func(p *trace.Packet, _ trace.Packet) { p.T = -time.Second },
			"direction": func(p *trace.Packet, _ trace.Packet) { p.Dir = 7 },
			"size":      func(p *trace.Packet, _ trace.Packet) { p.Size = -1 },
		} {
			bad := append(trace.Trace(nil), valid...)
			prev := trace.Packet{T: time.Second}
			if at > 0 {
				prev = bad[at-1]
			}
			breakIt(&bad[at], prev)
			traces[fmt.Sprintf("%s@%d", kind, at)] = bad
		}
	}
	for name, tr := range traces {
		for k, sets := range edgeSets() {
			checkRunWaits(t, fmt.Sprintf("%s/%d", name, k), tr, sets...)
		}
	}
	// Gaps exactly at the rules' edges: the tail, a fixed wait, the
	// threshold, and one nanosecond either side of each.
	for _, prof := range carriers {
		var tr trace.Trace
		at := time.Duration(0)
		for _, gap := range []time.Duration{prof.Tail(), 2 * time.Second, energy.Threshold(&prof), time.Second} {
			for _, d := range []time.Duration{-1, 0, 1} {
				tr = append(tr, trace.Packet{T: at, Dir: trace.Out, Size: 80})
				at += gap + d
			}
		}
		tr = append(tr, trace.Packet{T: at, Dir: trace.In, Size: 1400})
		checkRunWaits(t, "edge-gaps/"+prof.Name, tr, WaitSet{prof, edgeWaits(prof)})
		// The other carriers ride along in the same pass, over gaps at
		// this carrier's edges.
		sets := []WaitSet{{prof, edgeWaits(prof)}}
		for _, other := range carriers {
			sets = append(sets, WaitSet{other, edgeWaits(other)})
		}
		checkRunWaits(t, "edge-gaps-all/"+prof.Name, tr, sets...)
	}
}

// TestEngineReuseAcrossProfiles replays one engine on profile A, then B,
// then A again, through RunWaits and through RunSourceInto, over packets
// whose sizes repeat across the runs: a memo that survived a run would
// hand the next profile the previous one's transmission costs. Every
// RunWaits pass must match a fresh engine's, and every replay a fresh
// forced-generic engine's.
func TestEngineReuseAcrossProfiles(t *testing.T) {
	tr := mixedTrace(9, 300)
	// Open and close with the same size in both directions, so a memo
	// carried into the next run would hit at once.
	for _, i := range []int{0, 1, len(tr) - 2, len(tr) - 1} {
		tr[i].Dir, tr[i].Size = trace.Direction(i&1), 1400
	}
	e := NewEngine()
	for _, prof := range []power.Profile{power.Verizon3G, power.VerizonLTE, power.TMobile3G, power.Verizon3G} {
		sets := []WaitSet{{prof, interleave(edgeWaits(prof))}}
		want := [][]Result{make([]Result, len(sets[0].Rules))}
		got := [][]Result{make([]Result, len(sets[0].Rules))}
		if err := NewEngine().RunWaits(tr.Source(), sets, nil, want); err != nil {
			t.Fatal(err)
		}
		if err := e.RunWaits(tr.Source(), sets, nil, got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: reused engine's RunWaits differs from a fresh engine's", prof.Name)
		}
		for _, r := range sets[0].Rules {
			var want, got Result
			if err := genericEngine().RunSourceInto(&want, tr.Source(), prof, rulePolicy(r), nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := e.RunSourceInto(&got, tr.Source(), prof, rulePolicy(r), nil, nil); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s rule %+v: reused engine's replay differs from a fresh generic engine's", prof.Name, r)
			}
		}
	}
}

// TestRunWaitsRejects: options that record per-policy logs, result
// slices of the wrong length, a nil source and an invalid profile in any
// set fail before any packet is read.
func TestRunWaitsRejects(t *testing.T) {
	tr := workload.Verizon3GUsers()[0].Generate(3, 10*time.Minute)
	waits := []Wait{{D: time.Second}, {D: policy.Never}, {Oracle: true, D: time.Second}}
	sets := []WaitSet{{power.Verizon3G, waits}, {power.VerizonLTE, waits[:2]}}
	outs := func(ns ...int) [][]Result {
		out := make([][]Result, len(ns))
		for i, n := range ns {
			out[i] = make([]Result, n)
		}
		return out
	}
	e := NewEngine()
	for name, run := range map[string]func() error{
		"decisions": func() error {
			return e.RunWaits(tr.Source(), sets, &Options{RecordDecisions: true}, outs(3, 2))
		},
		"episodes": func() error {
			return e.RunWaits(tr.Source(), sets, &Options{RecordEpisodes: true}, outs(3, 2))
		},
		"short-out":   func() error { return e.RunWaits(tr.Source(), sets, nil, outs(3, 1)) },
		"missing-set": func() error { return e.RunWaits(tr.Source(), sets, nil, outs(3)) },
		"nil-source":  func() error { return e.RunWaits(nil, sets, nil, outs(3, 2)) },
		"profile": func() error {
			broken := []WaitSet{sets[0], {power.Profile{Name: "broken"}, waits}}
			return e.RunWaits(tr.Source(), broken, nil, outs(3, 3))
		},
	} {
		if err := run(); err == nil {
			t.Errorf("%s: RunWaits accepted it", name)
		}
	}
	// The engine is still good for both kinds of run afterwards.
	checkRunWaits(t, "after-rejects", tr, WaitSet{power.VerizonLTE, edgeWaits(power.VerizonLTE)}, sets[0])
}

// TestWaitRuleCapabilityMatchesWaitOf: every demote schema and alias of
// the policy registry, built under every built-in profile and alias, is a
// wait rule (WaitOf) exactly when its schema declares the WaitRule
// capability, which the grid planner reads instead of building it.
func TestWaitRuleCapabilityMatchesWaitOf(t *testing.T) {
	tr := workload.Verizon3GUsers()[0].Generate(1, 10*time.Minute)
	reg, profs := policy.Default(), power.Default()
	for _, pname := range profs.Names() {
		rp, err := power.ProfileSpec{Name: pname}.Resolution(profs)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range reg.Names(policy.RoleDemote) {
			schema, params, err := reg.Resolve(policy.RoleDemote, policy.Spec{Name: name})
			if err != nil {
				t.Fatal(err)
			}
			var fit trace.Trace
			if schema.TraceFitted {
				fit = tr
			}
			d, err := schema.NewDemote(params, fit, rp.Profile)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := WaitOf(d); ok != schema.WaitRule {
				t.Errorf("%s under %s: WaitOf says %v, the schema's WaitRule %v", name, pname, ok, schema.WaitRule)
			}
		}
	}
}

// TestWaitOf pins the recognized policies, the negative clamp of constant
// waits, the Oracle's threshold taken as is, and that MakeIdle is no rule.
func TestWaitOf(t *testing.T) {
	mi, err := policy.NewMakeIdle(power.Verizon3G)
	if err != nil {
		t.Fatal(err)
	}
	iat := policy.NewPercentileIAT(workload.Verizon3GUsers()[0].Generate(1, 10*time.Minute), 0.95)
	for _, c := range []struct {
		d    policy.DemotePolicy
		w    Wait
		isOK bool
	}{
		{policy.StatusQuo{}, Wait{D: policy.Never}, true},
		{&policy.FixedTail{Wait: 3 * time.Second}, Wait{D: 3 * time.Second}, true},
		{&policy.FixedTail{Wait: -time.Second}, Wait{}, true},
		{iat, Wait{D: iat.Wait()}, true},
		{policy.NewOracle(time.Second), Wait{Oracle: true, D: time.Second}, true},
		{policy.NewOracle(-time.Second), Wait{Oracle: true, D: -time.Second}, true},
		{mi, Wait{}, false},
	} {
		if w, ok := WaitOf(c.d); w != c.w || ok != c.isOK {
			t.Errorf("WaitOf(%s) = %+v, %v; want %+v, %v", c.d.Name(), w, ok, c.w, c.isOK)
		}
	}
	tail := power.Verizon3G.Tail()
	for r, want := range map[Wait]Wait{
		{D: -time.Second}:               {},
		{D: tail + 1}:                   {D: tail},
		{D: time.Second}:                {D: time.Second},
		{Oracle: true, D: tail + 1}:     {Oracle: true, D: tail + 1},
		{Oracle: true, D: policy.Never}: {Oracle: true, D: policy.Never},
		{Oracle: true, D: -time.Second}: {Oracle: true, D: -time.Second},
	} {
		if got := r.Clamped(tail); got != want {
			t.Errorf("%+v.Clamped = %+v, want %+v", r, got, want)
		}
	}
}

// fuzzTrace decodes a packet per four bytes: a 14-bit gap whose top two
// bits pick its unit (1 ms, 10 ms, 100 ms, 1 s), a direction and a size.
// 0xffff as the gap steps back in time (unsorted, or a negative first
// timestamp), direction byte 0xff is an invalid direction, and size byte
// 0xff a negative size.
func fuzzTrace(data []byte) trace.Trace {
	units := [4]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second}
	var tr trace.Trace
	var at time.Duration
	for k := 0; k+3 < len(data); k += 4 {
		g := binary.BigEndian.Uint16(data[k:])
		if g == 0xffff {
			at -= time.Millisecond
		} else {
			at += time.Duration(g&0x3fff) * units[g>>14]
		}
		p := trace.Packet{T: at, Dir: trace.Direction(data[k+2] & 1), Size: int(data[k+3]) * 23}
		if data[k+2] == 0xff {
			p.Dir = 2
		}
		if data[k+3] == 0xff {
			p.Size = -1
		}
		tr = append(tr, p)
	}
	return tr
}

// FuzzRunWaits holds RunWaits to separate forced-generic replays on
// arbitrary traces, rules and carrier sets. Each rule takes three bytes:
// a kind byte whose low bit picks the Oracle rule, then a signed count of
// 50 ms steps (negative waits and thresholds included), with 0x7fff
// standing for Never. The carrier byte picks one to four profiles: bits
// 2–3 give the count minus one, and profile k is carriers[(c + k·(c>>4))
// mod 4], so the first is carriers[c mod 4] (a byte below 4 is one set on
// that carrier, as before the byte picked a count) and duplicates occur.
// Every profile replays the fuzzed rules followed by its StatusQuo wait,
// its tail and the Oracle at its t_threshold, in an order shuffled per
// set by a generator seeded from the input.
func FuzzRunWaits(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 10}, []byte{0, 0, 20}, uint8(1))
	f.Add([]byte{0, 0, 1, 60, 0x40, 200, 0, 1, 0xc0, 9, 1, 200, 0x80, 3, 0, 0}, []byte{0, 0, 0, 0, 0xff, 0xf0, 0, 0, 90, 0, 0x7f, 0xff}, uint8(2))
	f.Add([]byte{0, 5, 0, 1, 0xff, 0xff, 1, 2, 0, 1, 0xff, 3}, []byte{0, 0, 40, 0, 0, 40}, uint8(3))
	f.Add([]byte{0xc0, 30, 0, 0xff, 0, 1, 0xff, 0}, []byte{0, 1, 0}, uint8(0))
	// Oracle rules: thresholds 0, 1 s, 4.5 s, 20 s (past every tail),
	// negative and Never, over gaps on both sides of each.
	f.Add([]byte{0, 0, 0, 10, 0x40, 30, 1, 200, 0xc0, 12, 0, 3, 0x80, 45, 1, 0, 0xc0, 2, 0, 90},
		[]byte{1, 0, 0, 1, 0, 20, 1, 0, 90, 1, 1, 144, 1, 0xff, 0xf0, 1, 0x7f, 0xff}, uint8(0))
	f.Add([]byte{0x80, 40, 1, 250, 0x80, 41, 0, 10, 0xc0, 2, 1, 1, 0, 0, 0, 0}, []byte{1, 0, 20, 0, 0, 20, 1, 0, 20}, uint8(2))
	f.Add([]byte{0, 1, 0, 1, 0x40, 250, 1, 254, 0x80, 12, 0, 254}, []byte{1, 0, 0, 1, 0, 90}, uint8(3))
	// All four carriers in one pass (0, 1, 2, 3), one carrier three times
	// (1, 1, 1), and a duplicate among others (1, 3, 1).
	f.Add([]byte{0, 0, 1, 60, 0x40, 200, 0, 1, 0xc0, 9, 1, 200, 0x80, 3, 0, 0}, []byte{1, 0, 20, 0, 0, 30}, uint8(0x1c))
	f.Add([]byte{0, 5, 0, 1, 0x80, 45, 1, 0, 0xc0, 2, 0, 90}, []byte{0, 0, 40, 1, 0, 90}, uint8(0x49))
	f.Add([]byte{0x80, 40, 1, 250, 0x80, 41, 0, 10, 0xc0, 2, 1, 1, 0, 0, 0, 0}, []byte{1, 0, 20, 0, 0, 20}, uint8(0x29))
	f.Fuzz(func(t *testing.T, data, ruleBytes []byte, carrier uint8) {
		var rules []Wait
		for k := 0; k+2 < len(ruleBytes) && len(rules) < 32; k += 3 {
			r := Wait{Oracle: ruleBytes[k]&1 == 1}
			if v := int16(binary.BigEndian.Uint16(ruleBytes[k+1:])); v == math.MaxInt16 {
				r.D = policy.Never
			} else {
				r.D = time.Duration(v) * 50 * time.Millisecond
			}
			rules = append(rules, r)
		}
		h := fnv.New64a()
		h.Write(data)
		h.Write(ruleBytes)
		h.Write([]byte{carrier})
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		sets := make([]WaitSet, int(carrier>>2&3)+1)
		for k := range sets {
			prof := carriers[(int(carrier)+k*int(carrier>>4))%len(carriers)]
			sets[k] = WaitSet{prof, append(slices.Clip(rules),
				Wait{D: policy.Never}, Wait{D: prof.Tail()}, Wait{Oracle: true, D: energy.Threshold(&prof)})}
			rs := sets[k].Rules
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		}
		checkRunWaits(t, "fuzz", fuzzTrace(data), sets...)
	})
}

// BenchmarkRunWaits prices the fused pass against K separate replays on
// tail-sweep's shape: one diurnal user-day decoded from an rrcstream slab,
// the four carriers, and the rules {1, 2, 3, 4.5, 6, 8 s, StatusQuo,
// Oracle at t_threshold}. "fused" runs one pass for all four carriers,
// "per-profile" one pass per carrier, and "replays" one replay per
// (carrier, rule). It reports ns per (packet, profile) — the whole rule
// set's cost for one packet on one carrier, decode included.
func BenchmarkRunWaits(b *testing.B) {
	slab, err := trace.EncodeStream(workload.DayUser(workload.Verizon3GUsers()[3]).Stream(11, 24*time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	packets := 0
	var src trace.BytesSource
	if err := src.Reset(slab); err != nil {
		b.Fatal(err)
	}
	for {
		_, ok, err := src.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		packets++
	}
	sets := make([]WaitSet, len(carriers))
	out := make([][]Result, len(carriers))
	for i := range carriers {
		sets[i] = WaitSet{carriers[i], append(constWaits(time.Second, 2*time.Second, 3*time.Second, 4500*time.Millisecond,
			6*time.Second, 8*time.Second, policy.Never), Wait{Oracle: true, D: energy.Threshold(&carriers[i])})}
		out[i] = make([]Result, len(sets[i].Rules))
	}
	e := NewEngine()
	run := func(b *testing.B, sets []WaitSet, out [][]Result) {
		if err := src.Reset(slab); err != nil {
			b.Fatal(err)
		}
		if err := e.RunWaits(&src, sets, nil, out); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []string{"fused", "per-profile", "replays"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				switch mode {
				case "fused":
					run(b, sets, out)
				case "per-profile":
					for c := range sets {
						run(b, sets[c:c+1], out[c:c+1])
					}
				default:
					for c, set := range sets {
						for k, r := range set.Rules {
							if err := src.Reset(slab); err != nil {
								b.Fatal(err)
							}
							if err := e.RunSourceInto(&out[c][k], &src, set.Prof, rulePolicy(r), nil, nil); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*packets*len(carriers)), "ns/pkt-profile")
		})
	}
}
