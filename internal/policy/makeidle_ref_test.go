package policy

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/workload"
)

// referenceDecide is MakeIdle.Decide as it was before the bucket filter:
// for every grid wait it re-sums the whole window, oldest gap first. It is
// the differential oracle the filtered Decide must match bit for bit, and
// it is kept verbatim so the oracle is the code whose waits the filter
// promises to reproduce.
func (m *MakeIdle) referenceDecide() time.Duration {
	if m.count < m.minSample {
		m.lastWait = Never
		return Never
	}
	wa, wb := m.window()
	// Expected status-quo energy for a gap drawn from the window.
	n := float64(m.count)
	var eNoSwitch float64
	for i := range wa {
		eNoSwitch += wa[i].gapJ
	}
	for i := range wb {
		eNoSwitch += wb[i].gapJ
	}
	eNoSwitch /= n

	bestWait := Never
	bestGain := 0.0 // only accept strictly positive expected gain
	for i, w := range m.grid {
		var eWait float64
		if m.paperExp {
			// Paper's literal eq.: Eswitch + E(t_wait), unconditionally.
			eWait = m.gridCost[i]
		} else {
			wcost := m.gridCost[i]
			for k := range wa {
				if wa[k].gap <= w {
					eWait += wa[k].tailJ
				} else {
					eWait += wcost
				}
			}
			for k := range wb {
				if wb[k].gap <= w {
					eWait += wb[k].tailJ
				} else {
					eWait += wcost
				}
			}
			eWait /= n
		}
		if gain := eNoSwitch - eWait; gain > bestGain {
			bestGain = gain
			bestWait = w
		}
	}
	m.lastWait = bestWait
	return bestWait
}

// refProfiles are the profiles the differential tests sweep: the
// round-number test profile and the four carriers.
func refProfiles() []power.Profile {
	return []power.Profile{idleProfile(), power.TMobile3G, power.ATTHSPAPlus, power.Verizon3G, power.VerizonLTE}
}

// gapGen draws one inter-arrival for a policy whose candidate waits are
// grid.
type gapGen func(r *rand.Rand, grid []time.Duration, p *power.Profile) time.Duration

var refGapGens = []struct {
	name string
	gen  gapGen
}{
	// Realistic mix: dense bursts, gaps around the threshold, long idles.
	{"mixed", func(r *rand.Rand, grid []time.Duration, p *power.Profile) time.Duration {
		switch x := r.Float64(); {
		case x < 0.6:
			return time.Duration(r.ExpFloat64() * float64(200*time.Millisecond))
		case x < 0.85:
			return time.Duration(r.Int63n(int64(2*grid[len(grid)-1]) + 1))
		default:
			return time.Duration(r.ExpFloat64() * float64(time.Minute))
		}
	}},
	// Gaps exactly on (or one nanosecond either side of) a grid wait.
	{"on-grid", func(r *rand.Rand, grid []time.Duration, p *power.Profile) time.Duration {
		offsets := [...]time.Duration{0, 0, 0, -1, 1}
		return max(grid[r.Intn(len(grid))]+offsets[r.Intn(len(offsets))], 0)
	}},
	// All zero: every wait covers every gap, so all gains tie exactly.
	{"zero", func(*rand.Rand, []time.Duration, *power.Profile) time.Duration { return 0 }},
	// Every gap below grid[1]: waits 1.. all cover the window and tie.
	{"below-grid1", func(r *rand.Rand, grid []time.Duration, p *power.Profile) time.Duration {
		return time.Duration(r.Int63n(int64(grid[1]) + 1))
	}},
	// Gaps on the energy function's kinks: the threshold, t1 and the tail.
	{"kinks", func(r *rand.Rand, grid []time.Duration, p *power.Profile) time.Duration {
		ks := [...]time.Duration{grid[len(grid)-1], p.T1, p.Tail(), 2 * p.Tail()}
		return max(ks[r.Intn(len(ks))]+time.Duration(r.Intn(3)-1), 0)
	}},
}

// TestMakeIdleDecideMatchesReference is the differential check of the
// bucket filter: after every Observe, Decide must return exactly the wait
// referenceDecide computes, across window sizes 1-300, grid steps 2-200,
// the test profile and the four carriers, gap patterns built to hit grid
// points and exact ties, and both expectations.
func TestMakeIdleDecideMatchesReference(t *testing.T) {
	windows := []int{1, 2, 7, 100, 300}
	steps := []int{2, 3, 40, 200}
	decisions := 0
	for pi, p := range refProfiles() {
		for _, g := range refGapGens {
			for _, n := range windows {
				for _, s := range steps {
					for _, paper := range []bool{false, true} {
						opts := []MakeIdleOption{WithWindowSize(n), WithGridSteps(s), WithMinSample(1)}
						if paper {
							opts = append(opts, WithPaperExpectation())
						}
						m, err := NewMakeIdle(p, opts...)
						if err != nil {
							t.Fatal(err)
						}
						r := rand.New(rand.NewSource(int64(pi*1000 + n*10 + s)))
						for k := 0; k < n+40; k++ {
							m.Observe(g.gen(r, m.grid, &p))
							got, want := m.Decide(0), m.referenceDecide()
							decisions++
							if got != want {
								t.Fatalf("%s/%s window=%d steps=%d paper=%v decision %d: Decide=%v reference=%v",
									p.Name, g.name, n, s, paper, k, got, want)
							}
							if m.LastWait() != got {
								t.Fatalf("LastWait %v, Decide returned %v", m.LastWait(), got)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d decisions matched", decisions)
}

// TestMakeIdleDecideZeroAllocs pins Decide's steady state at no heap
// allocation per packet.
func TestMakeIdleDecideZeroAllocs(t *testing.T) {
	m := mustMakeIdle(t)
	r := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe(refGapGens[0].gen(r, m.grid, &m.profile))
		m.Decide(0)
	})
	if allocs != 0 {
		t.Fatalf("Observe+Decide allocates %.1f times per packet", allocs)
	}
}

// userDayGaps returns the inter-arrivals of one study-3g user-day.
func userDayGaps(tb testing.TB) []time.Duration {
	tb.Helper()
	tr := workload.DayUser(workload.Verizon3GUsers()[0]).Generate(1, 24*time.Hour)
	if len(tr) < 1000 {
		tb.Fatalf("user-day has only %d packets", len(tr))
	}
	gaps := make([]time.Duration, len(tr)-1)
	for i := range gaps {
		gaps[i] = tr[i+1].T - tr[i].T
	}
	return gaps
}

// TestMakeIdleFilterPrunes guards the point of the bounds: on a real
// user-day they settle nearly every decision on every carrier, so the
// direct per-wait evaluation runs for at most 1% of decisions.
func TestMakeIdleFilterPrunes(t *testing.T) {
	gaps := userDayGaps(t)
	for _, p := range refProfiles()[1:] {
		m, err := NewMakeIdle(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gaps {
			m.Observe(g)
			m.Decide(0)
		}
		per := float64(m.evals) / float64(len(gaps))
		t.Logf("%s: %.4f direct evaluations per Decide over %d packets", p.Name, per, len(gaps))
		if per > 0.01 {
			t.Errorf("%s: the bounds no longer settle decisions: want almost no direct evaluations", p.Name)
		}
	}
}

// extremeProfiles scale the test profile's powers so far down that the
// fixed-point shift hits its upper clamp (and the energies go subnormal)
// and so far up that it turns negative.
func extremeProfiles() []power.Profile {
	scaled := func(name string, f float64) power.Profile {
		p := idleProfile()
		p.Name = name
		p.SendMW *= f
		p.RecvMW *= f
		p.T1MW *= f
		p.T2MW *= f
		p.PromotionMW *= f
		p.RadioOffJ *= f
		return p
	}
	return []power.Profile{scaled("tiny", 1e-300), scaled("subnormal", 1e-310), scaled("huge", 1e250)}
}

// checkWindowStats recomputes the fixed-point window statistics from the
// window's samples and fails unless Observe's incremental ones equal them.
func checkWindowStats(t *testing.T, m *MakeIdle) {
	t.Helper()
	n := make([]int64, len(m.bucketN))
	q := make([]int64, len(m.bucketQ))
	var g int64
	wa, wb := m.window()
	for _, span := range [2][]gapSample{wa, wb} {
		for _, s := range span {
			if s.tailQ != m.fixed(s.tailJ) || s.gapQ != m.fixed(s.gapJ) {
				t.Fatalf("sample %+v: stale fixed-point terms", s)
			}
			n[s.bucket]++
			q[s.bucket] += s.tailQ
			g += s.gapQ
		}
	}
	if !slices.Equal(n, m.bucketN) || !slices.Equal(q, m.bucketQ) || g != m.sumGapQ {
		t.Fatalf("incremental window statistics drifted: counts %v sums %v E %d, recomputed %v %v %d",
			m.bucketN, m.bucketQ, m.sumGapQ, n, q, g)
	}
	if top := int64(1) << 52; g >= top || slices.ContainsFunc(m.lower, func(a int64) bool { return a >= top }) {
		t.Fatalf("a window sum reached 2^52: E %d, A %v", g, m.lower)
	}
}

// TestMakeIdleIncrementalStatsMatchReference drives the incremental window
// statistics through windows from 1 to 10,000 gaps, with a Reset part-way
// and more than ten refills after it, on the carriers and on
// profiles at both ends of the fixed-point shift. The statistics must equal
// a recomputation from the window, and Decide must return exactly the wait
// referenceDecide computes (checked after every gap for small windows and
// at about 100 points for large ones).
func TestMakeIdleIncrementalStatsMatchReference(t *testing.T) {
	profiles := append(refProfiles(), extremeProfiles()...)
	windows := []int{1, 2, 3, 10, 100, 1000, 10000}
	decisions := 0
	for pi, p := range profiles {
		for _, n := range windows {
			if p.Name == "subnormal" && n > 100 {
				// Subnormal energies leave the bounds no precision: every
				// decision evaluates all waits directly, O(window·grid).
				continue
			}
			m, err := NewMakeIdle(p, WithWindowSize(n), WithMinSample(1))
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(pi*100000 + n)))
			steps := 14*n + 40 // past the Reset, more than eleven refills
			every := max(1, steps/100)
			for k := 0; k < steps; k++ {
				if k == 5*n/2+7 {
					m.Reset()
					checkWindowStats(t, m)
				}
				m.Observe(refGapGens[k%2].gen(r, m.grid, &p))
				got := m.Decide(0)
				if k%every != 0 && k != steps-1 {
					continue
				}
				checkWindowStats(t, m)
				decisions++
				if want := m.referenceDecide(); got != want {
					t.Fatalf("%s window=%d step %d: Decide=%v reference=%v", p.Name, n, k, got, want)
				}
			}
		}
	}
	t.Logf("%d decisions matched", decisions)
}

// TestMakeIdleFixedPointRange checks the fixed-point unit 2^-s J. A full
// window of gaps past the tail adds the largest E term there is, so its E
// sum must stay below 2^52 units, the bound every exact conversion rests
// on, and above 2^50 unless s sits at its clamp (a smaller unit would only
// lose precision). Windows of 2^k-1 gaps leave the least headroom. The
// extreme profiles must put s at its clamp of 1023 and far below 0.
func TestMakeIdleFixedPointRange(t *testing.T) {
	for _, p := range append(refProfiles(), extremeProfiles()...) {
		for _, n := range []int{1, 127, 1023, 8191} {
			m, err := NewMakeIdle(p, WithWindowSize(n))
			if err != nil {
				t.Fatal(err)
			}
			for range n {
				m.Observe(time.Hour)
			}
			m.Decide(0)
			checkWindowStats(t, m)
			clamped := m.scale == math.Ldexp(1, 1023)
			if !clamped && m.sumGapQ < 1<<50 {
				t.Errorf("%s window=%d: saturated E sum %d units, want at least 2^50", p.Name, n, m.sumGapQ)
			}
			if want := p.Name == "tiny" || p.Name == "subnormal"; clamped != want {
				t.Errorf("%s window=%d: unit 2^%d J", p.Name, n, -math.Ilogb(m.scale))
			}
			if p.Name == "huge" && m.scale > math.Ldexp(1, -700) {
				t.Errorf("%s window=%d: unit 2^%d J, want s far below 0", p.Name, n, -math.Ilogb(m.scale))
			}
		}
	}
}

// waitSink keeps BenchmarkMakeIdleDecide's results observable.
var waitSink time.Duration

// BenchmarkMakeIdleDecide measures one Observe+Decide step over a
// study-3g user-day of gaps on the Verizon 3G profile.
func BenchmarkMakeIdleDecide(b *testing.B) {
	m, err := NewMakeIdle(power.Verizon3G)
	if err != nil {
		b.Fatal(err)
	}
	gaps := userDayGaps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(gaps[i%len(gaps)])
		waitSink = m.Decide(0)
	}
}

// FuzzMakeIdleDecide drives Decide and referenceDecide over a fuzzed gap
// sequence, window and grid and compares their waits after every Observe.
// Each gap takes two bytes: with the top bit set it is a grid wait (the
// low byte picks which) nudged by -1, 0 or +1 ns; with bit 6 set the low
// 14 bits count seconds; otherwise all 15 count milliseconds.
func FuzzMakeIdleDecide(f *testing.F) {
	f.Add([]byte{0x80, 0, 0x80, 1, 0x05, 0xdc, 0x40, 0x3c}, uint16(4), uint8(38), uint8(0), false)
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0xa0, 7}, uint16(99), uint8(0), uint8(3), false)
	f.Add([]byte{0x00, 0x32, 0x40, 0x01, 0x00, 0x32, 0xc0, 2}, uint16(2), uint8(200), uint8(4), true)
	profiles := refProfiles()
	f.Fuzz(func(t *testing.T, data []byte, window uint16, steps uint8, profile uint8, paper bool) {
		opts := []MakeIdleOption{
			WithWindowSize(1 + int(window)%300),
			WithGridSteps(2 + int(steps)%199),
			WithMinSample(1),
		}
		if paper {
			opts = append(opts, WithPaperExpectation())
		}
		m, err := NewMakeIdle(profiles[int(profile)%len(profiles)], opts...)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k+1 < len(data); k += 2 {
			hi, lo := data[k], data[k+1]
			var gap time.Duration
			switch {
			case hi&0x80 != 0:
				gap = max(m.grid[int(lo)%len(m.grid)]+time.Duration(int(hi>>5&3)%3-1), 0)
			case hi&0x40 != 0:
				gap = time.Duration(hi&0x3f)<<8 | time.Duration(lo)
				gap *= time.Second
			default:
				gap = (time.Duration(hi)<<8 | time.Duration(lo)) * time.Millisecond
			}
			m.Observe(gap)
			if got, want := m.Decide(0), m.referenceDecide(); got != want {
				t.Fatalf("after gap %d (%v): Decide=%v reference=%v", k/2, gap, got, want)
			}
		}
	})
}
