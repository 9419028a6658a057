package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The fused constant-wait pass (RunWaits) promises each wait exactly the
// scalars of its own replay. These tests hold it to K separate
// RunSourceInto calls, field by field and bit for bit.

var carriers = []power.Profile{power.TMobile3G, power.ATTHSPAPlus, power.Verizon3G, power.VerizonLTE}

// waitPolicy is the built-in policy that decides w at every gap.
func waitPolicy(w time.Duration) policy.DemotePolicy {
	if w == policy.Never {
		return policy.StatusQuo{}
	}
	return &policy.FixedTail{Wait: w}
}

// checkRunWaits replays tr once per wait on an engine and once through
// RunWaits, and requires the same scalars in every Result (TotalJ
// compared by its bits too) or the same error at the same packet.
func checkRunWaits(t testing.TB, label string, tr trace.Trace, prof power.Profile, waits []time.Duration) {
	t.Helper()
	e := NewEngine()
	want := make([]Result, len(waits))
	var wantErr error
	for i, w := range waits {
		if wantErr = e.RunSourceInto(&want[i], tr.Source(), prof, waitPolicy(w), nil, nil); wantErr != nil {
			break
		}
	}
	got := make([]Result, len(waits))
	err := e.RunWaits(tr.Source(), prof, waits, nil, got)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: RunWaits error %v, replay error %v", label, err, wantErr)
		}
		return
	}
	for i := range waits {
		if got[i].Policy != "" {
			t.Fatalf("%s: RunWaits stamped Policy %q", label, got[i].Policy)
		}
		got[i].Policy = want[i].Policy
		if !reflect.DeepEqual(want[i], got[i]) ||
			math.Float64bits(want[i].TotalJ()) != math.Float64bits(got[i].TotalJ()) {
			t.Fatalf("%s: wait %v differs from its replay:\nreplay: %+v\nfused:  %+v", label, waits[i], want[i], got[i])
		}
	}
}

// edgeWaits are the waits every carrier is checked under: zero, negative,
// the tail itself, beyond the tail, Never, duplicates and a few in range.
func edgeWaits(prof power.Profile) []time.Duration {
	tail := prof.Tail()
	return []time.Duration{0, -time.Second, tail, tail + time.Second, policy.Never,
		2 * time.Second, 2 * time.Second, 50 * time.Millisecond, 4500 * time.Millisecond, tail - 1, tail}
}

// TestRunWaitsMatchesReplays covers empty, one- and two-packet traces
// and generated user traffic on all four carriers under the edge waits,
// plus every kind of invalid packet at several positions.
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
		for _, prof := range carriers {
			checkRunWaits(t, name+"/"+prof.Name, tr, prof, edgeWaits(prof))
		}
	}
}

// TestRunWaitsRejects: options that record per-policy logs, a result
// slice of the wrong length, a nil source and an invalid profile fail
// before any packet is read.
func TestRunWaitsRejects(t *testing.T) {
	tr := workload.Verizon3GUsers()[0].Generate(3, 10*time.Minute)
	waits := []time.Duration{time.Second, policy.Never}
	e := NewEngine()
	for name, run := range map[string]func() error{
		"decisions": func() error {
			return e.RunWaits(tr.Source(), power.Verizon3G, waits, &Options{RecordDecisions: true}, make([]Result, 2))
		},
		"episodes": func() error {
			return e.RunWaits(tr.Source(), power.Verizon3G, waits, &Options{RecordEpisodes: true}, make([]Result, 2))
		},
		"short-out":  func() error { return e.RunWaits(tr.Source(), power.Verizon3G, waits, nil, make([]Result, 1)) },
		"nil-source": func() error { return e.RunWaits(nil, power.Verizon3G, waits, nil, make([]Result, 2)) },
		"profile": func() error {
			return e.RunWaits(tr.Source(), power.Profile{Name: "broken"}, waits, nil, make([]Result, 2))
		},
	} {
		if err := run(); err == nil {
			t.Errorf("%s: RunWaits accepted it", name)
		}
	}
	// The engine is still good for both kinds of run afterwards.
	checkRunWaits(t, "after-rejects", tr, power.VerizonLTE, edgeWaits(power.VerizonLTE))
}

// TestConstWait pins the recognized policies and the negative clamp, and
// that the lookahead Oracle and MakeIdle are not constant.
func TestConstWait(t *testing.T) {
	mi, err := policy.NewMakeIdle(power.Verizon3G)
	if err != nil {
		t.Fatal(err)
	}
	iat := policy.NewPercentileIAT(workload.Verizon3GUsers()[0].Generate(1, 10*time.Minute), 0.95)
	for _, c := range []struct {
		d    policy.DemotePolicy
		w    time.Duration
		isOK bool
	}{
		{policy.StatusQuo{}, policy.Never, true},
		{&policy.FixedTail{Wait: 3 * time.Second}, 3 * time.Second, true},
		{&policy.FixedTail{Wait: -time.Second}, 0, true},
		{iat, iat.Wait(), true},
		{policy.NewOracle(time.Second), 0, false},
		{mi, 0, false},
	} {
		if w, ok := ConstWait(c.d); w != c.w || ok != c.isOK {
			t.Errorf("ConstWait(%s) = %v, %v; want %v, %v", c.d.Name(), w, ok, c.w, c.isOK)
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

// FuzzRunWaits holds RunWaits to K separate replays on arbitrary traces,
// waits and carriers. Each wait takes two bytes: a signed count of 50 ms
// steps (negative waits included), with 0x7fff standing for Never; the
// fuzzed waits always end with Never and the carrier's tail.
func FuzzRunWaits(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 10}, []byte{0, 20}, uint8(1))
	f.Add([]byte{0, 0, 1, 60, 0x40, 200, 0, 1, 0xc0, 9, 1, 200, 0x80, 3, 0, 0}, []byte{0, 0, 0xff, 0xf0, 0, 90, 0x7f, 0xff}, uint8(2))
	f.Add([]byte{0, 5, 0, 1, 0xff, 0xff, 1, 2, 0, 1, 0xff, 3}, []byte{0, 40, 0, 40}, uint8(3))
	f.Add([]byte{0xc0, 30, 0, 0xff, 0, 1, 0xff, 0}, []byte{1, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data, waitBytes []byte, carrier uint8) {
		prof := carriers[int(carrier)%len(carriers)]
		var waits []time.Duration
		for k := 0; k+1 < len(waitBytes) && len(waits) < 32; k += 2 {
			v := int16(binary.BigEndian.Uint16(waitBytes[k:]))
			if v == math.MaxInt16 {
				waits = append(waits, policy.Never)
			} else {
				waits = append(waits, time.Duration(v)*50*time.Millisecond)
			}
		}
		waits = append(waits, policy.Never, prof.Tail())
		checkRunWaits(t, "fuzz", fuzzTrace(data), prof, waits)
	})
}

// BenchmarkRunWaits prices the fused pass against K separate replays on
// tail-sweep's shape: one diurnal user-day decoded from an rrcstream slab,
// the four carriers, and the waits {1, 2, 3, 4.5, 6, 8 s, StatusQuo}. It
// reports ns per (packet, profile) — the whole wait set's cost for one
// packet on one carrier, decode included.
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
	waits := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4500 * time.Millisecond,
		6 * time.Second, 8 * time.Second, policy.Never}
	e := NewEngine()
	out := make([]Result, len(waits))
	for _, mode := range []string{"fused", "replays"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, prof := range carriers {
					if mode == "fused" {
						if err := src.Reset(slab); err != nil {
							b.Fatal(err)
						}
						if err := e.RunWaits(&src, prof, waits, nil, out); err != nil {
							b.Fatal(err)
						}
						continue
					}
					for k, w := range waits {
						if err := src.Reset(slab); err != nil {
							b.Fatal(err)
						}
						if err := e.RunSourceInto(&out[k], &src, prof, waitPolicy(w), nil, nil); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*packets*len(carriers)), "ns/pkt-profile")
		})
	}
}
