// Package workload generates synthetic packet traces that stand in for the
// paper's real user captures (tcpdump on 9 users over 28 days, plus 2-hour
// per-application traces; §6.1).
//
// The substitution is documented in docs/architecture.md ("Synthetic
// traffic in place of the captures"): the algorithms under study
// see only packet timestamps, directions and sizes, so what matters is the
// statistical structure of the traffic — heartbeat cadence, poll periods,
// burst shapes and heavy-tailed think times — which these models produce
// explicitly. Every generator is driven by a caller-supplied seed and is
// fully deterministic.
//
// Building blocks (periodic polls, Poisson sessions, Pareto think times,
// request/response bursts, TCP-like bulk transfers) combine into the paper's
// seven application categories and into multi-application per-user mixes.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/trace"
)

// AppModel generates the traffic of one application category.
type AppModel interface {
	// Name identifies the model (matches the paper's Fig. 9 x-axis).
	Name() string
	// Stream returns a sorted source of the packets covering [0,
	// duration], synthesized lazily using r as the sole source of
	// randomness.
	Stream(r *rand.Rand, duration time.Duration) trace.Source
}

// secsDur converts float seconds to a Duration.
func secsDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// jittered returns base scaled by a uniform factor in [1-j, 1+j].
func jittered(r *rand.Rand, base time.Duration, j float64) time.Duration {
	if j <= 0 {
		return base
	}
	// The explicit float64 conversions round each product, so no target
	// fuses them into a multiply-add (see docs/architecture.md); 2*x is
	// x+x, which would fuse with the scaling inside r.Float64.
	f := 1 + float64(j*(2*float64(r.Float64())-1))
	return time.Duration(float64(base) * f)
}

// pareto samples a Pareto(xm, alpha) value, capped at cap to keep day-scale
// traces from degenerating into one infinite gap.
func pareto(r *rand.Rand, xm float64, alpha float64, cap float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	v := xm / math.Pow(1-u, 1/alpha)
	if v > cap {
		v = cap
	}
	return v
}

// BurstShape describes one request/response exchange: a small uplink
// request followed by a downlink payload split into MTU-sized packets,
// with millisecond-scale intra-burst gaps.
type BurstShape struct {
	// ReqBytes is the uplink request size (0 suppresses the request).
	ReqBytes int
	// RespBytes is the total downlink payload.
	RespBytes int
	// RespJitter scales RespBytes by up to this fraction either way.
	RespJitter float64
	// MTU bounds individual packet sizes (default 1400 if zero).
	MTU int
	// MeanGap is the mean intra-burst inter-packet gap (default 20 ms).
	MeanGap time.Duration
}

func (b BurstShape) mtu() int {
	if b.MTU <= 0 {
		return 1400
	}
	return b.MTU
}

func (b BurstShape) meanGap() time.Duration {
	if b.MeanGap <= 0 {
		return 20 * time.Millisecond
	}
	return b.MeanGap
}

// Emit appends the burst's packets starting at t and returns the extended
// trace plus the time just after the last packet.
func (b BurstShape) Emit(r *rand.Rand, tr trace.Trace, t time.Duration) (trace.Trace, time.Duration) {
	gap := func() time.Duration {
		// Exponential around the mean, floored at 1 ms.
		g := time.Duration(r.ExpFloat64() * float64(b.meanGap()))
		if g < time.Millisecond {
			g = time.Millisecond
		}
		return g
	}
	if b.ReqBytes > 0 {
		tr = append(tr, trace.Packet{T: t, Dir: trace.Out, Size: b.ReqBytes})
		t += gap()
	}
	resp := b.RespBytes
	if b.RespJitter > 0 {
		f := 1 + float64(b.RespJitter*(2*float64(r.Float64())-1))
		resp = int(float64(resp) * f)
	}
	for resp > 0 {
		sz := b.mtu()
		if resp < sz {
			sz = resp
		}
		tr = append(tr, trace.Packet{T: t, Dir: trace.In, Size: sz})
		resp -= sz
		if resp > 0 {
			t += gap()
		}
	}
	return tr, t
}

// Bulk emits a TCP-like bulk transfer of total bytes in the given direction
// starting at t: MTU-sized data packets at the link rate with periodic
// reverse-direction ACKs. Used by the Fig. 8 energy-model validation.
func Bulk(r *rand.Rand, t time.Duration, total int, uplink bool, rateMbps float64, mtu int) trace.Trace {
	if mtu <= 0 {
		mtu = 1400
	}
	if rateMbps <= 0 {
		rateMbps = 1
	}
	perPacket := secsDur(float64(mtu) * 8 / (rateMbps * 1e6))
	dir, ack := trace.In, trace.Out
	if uplink {
		dir, ack = trace.Out, trace.In
	}
	var tr trace.Trace
	sent := 0
	i := 0
	for sent < total {
		sz := mtu
		if total-sent < sz {
			sz = total - sent
		}
		tr = append(tr, trace.Packet{T: t, Dir: dir, Size: sz})
		sent += sz
		i++
		if i%2 == 0 { // delayed ACK every other segment
			tr = append(tr, trace.Packet{T: t + perPacket/2, Dir: ack, Size: 52})
		}
		t += jittered(r, perPacket, 0.1)
	}
	tr.Sort()
	return tr
}

// Periodic models an application that wakes up on a (jittered) period and
// performs one request/response exchange — the shape of the paper's News,
// Micro-blog, Email and ad-bar categories.
type Periodic struct {
	Label  string
	Period time.Duration
	Jitter float64 // fraction of Period
	Shape  BurstShape
	// ExtraBurstP is the probability that a wake-up performs a second
	// follow-up exchange (content fetch after a check).
	ExtraBurstP float64
}

// Name implements AppModel.
func (p Periodic) Name() string { return p.Label }

// Heartbeat models keep-alive traffic: a tiny uplink packet answered by a
// tiny downlink packet on a uniformly random period in [MinPeriod,
// MaxPeriod] — the paper's IM category ("every 5 to 20 seconds").
type Heartbeat struct {
	Label                string
	MinPeriod, MaxPeriod time.Duration
	// MessageP is the probability that a heartbeat interval also carries
	// a real message exchange.
	MessageP float64
	Message  BurstShape
}

// Name implements AppModel.
func (h Heartbeat) Name() string { return h.Label }

// Interactive models foreground use: sessions arrive after Pareto think
// times; within a session the user performs several exchanges separated by
// short think times — the paper's Social category, and the backbone of the
// per-user mixes.
type Interactive struct {
	Label string
	// ThinkMin is the minimum think time between sessions (Pareto xm).
	ThinkMin time.Duration
	// ThinkAlpha is the Pareto shape (smaller = heavier tail).
	ThinkAlpha float64
	// ThinkCap bounds a single think time.
	ThinkCap time.Duration
	// ActionsMax is the maximum exchanges per session (>= 1).
	ActionsMax int
	Shape      BurstShape
}

// Name implements AppModel.
func (s Interactive) Name() string { return s.Label }

// Ticker models high-frequency foreground updates (the paper's Finance
// category: "updates roughly once per second").
type Ticker struct {
	Label  string
	Period time.Duration
	Jitter float64
	Size   int // downlink tick size
}

// Name implements AppModel.
func (tk Ticker) Name() string { return tk.Label }

// The seven application categories of §6.1. Parameters follow the paper's
// descriptions (IM heartbeats every 5-20 s, email sync every 5 min, ad bar
// about once a minute, finance about once a second, ...).

// News returns the news-reader model: breaking-news polls every few minutes
// with a follow-up story fetch on some polls.
func News() AppModel {
	return Periodic{
		Label:  "News",
		Period: 3 * time.Minute,
		Jitter: 0.3,
		Shape:  BurstShape{ReqBytes: 420, RespBytes: 6_000, RespJitter: 0.5},
		// About a third of checks find fresh content and fetch it.
		ExtraBurstP: 0.35,
	}
}

// IM returns the instant-messaging model: 5-20 s heartbeats with occasional
// message exchanges.
func IM() AppModel {
	return Heartbeat{
		Label:     "IM",
		MinPeriod: 5 * time.Second,
		MaxPeriod: 20 * time.Second,
		MessageP:  0.05,
		Message:   BurstShape{ReqBytes: 300, RespBytes: 800, RespJitter: 0.5},
	}
}

// MicroBlog returns the micro-blog model: tweet-timeline fetches roughly
// every 1-2 minutes without user input.
func MicroBlog() AppModel {
	return Periodic{
		Label:       "MicroBlog",
		Period:      90 * time.Second,
		Jitter:      0.4,
		Shape:       BurstShape{ReqBytes: 500, RespBytes: 12_000, RespJitter: 0.6},
		ExtraBurstP: 0.15,
	}
}

// Game returns the game-with-ad-bar model: the game runs offline but its
// advertisement bar refreshes about once a minute.
func Game() AppModel {
	return Periodic{
		Label:  "Game",
		Period: time.Minute,
		Jitter: 0.15,
		Shape:  BurstShape{ReqBytes: 350, RespBytes: 2_500, RespJitter: 0.4},
	}
}

// Email returns the email model: a background sync against the server every
// five minutes, sometimes pulling message bodies.
func Email() AppModel {
	return Periodic{
		Label:       "Email",
		Period:      5 * time.Minute,
		Jitter:      0.1,
		Shape:       BurstShape{ReqBytes: 600, RespBytes: 4_000, RespJitter: 1.0},
		ExtraBurstP: 0.25,
	}
}

// Social returns the social-network model: foreground browsing sessions
// (feed reads, picture views, comment posts) separated by heavy-tailed
// think times. The paper used foreground traffic for this category.
func Social() AppModel {
	return Interactive{
		Label:      "Social",
		ThinkMin:   30 * time.Second,
		ThinkAlpha: 1.2,
		ThinkCap:   20 * time.Minute,
		ActionsMax: 8,
		Shape:      BurstShape{ReqBytes: 700, RespBytes: 30_000, RespJitter: 0.8},
	}
}

// Finance returns the stock-ticker model: roughly one downlink update per
// second while foregrounded.
func Finance() AppModel {
	return Ticker{
		Label:  "Finance",
		Period: time.Second,
		Jitter: 0.2,
		Size:   450,
	}
}

// Apps returns the seven §6.1 categories in the order of Fig. 9.
func Apps() []AppModel {
	return []AppModel{News(), IM(), MicroBlog(), Game(), Email(), Social(), Finance()}
}

// AppByName returns the named category model.
func AppByName(name string) (AppModel, bool) {
	for _, a := range Apps() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Generate runs a model with a fresh deterministic RNG for the seed and
// materializes its stream.
func Generate(m AppModel, seed int64, duration time.Duration) trace.Trace {
	return collect(Stream(m, seed, duration))
}

// User describes one synthetic study participant: a named mix of
// application models that run concurrently.
type User struct {
	Name string
	Apps []AppModel
}

// Generate produces the user's merged trace: each app gets an independent
// RNG derived from the user seed, and the per-app traces are merged in time
// order, mirroring several apps running on one phone. It drains Stream, so
// materialized and streamed user traffic agree packet for packet.
func (u User) Generate(seed int64, duration time.Duration) trace.Trace {
	return collect(u.Stream(seed, duration))
}

// Verizon3GUsers returns the six synthetic users standing in for the
// paper's Verizon 3G participants (Figs. 10 and 12a). The mixes differ in
// which backgrounds run and how chatty the foreground is, producing the
// user-to-user spread the paper's figures show.
func Verizon3GUsers() []User {
	return []User{
		{Name: "user1", Apps: []AppModel{IM(), Email(), News()}},
		{Name: "user2", Apps: []AppModel{Email(), MicroBlog(), Social()}},
		{Name: "user3", Apps: []AppModel{IM(), Game(), Email()}},
		{Name: "user4", Apps: []AppModel{News(), MicroBlog(), Email(), Social()}},
		{Name: "user5", Apps: []AppModel{IM(), Social()}},
		{Name: "user6", Apps: []AppModel{Game(), Email(), News(), IM()}},
	}
}

// VerizonLTEUsers returns the three synthetic users standing in for the
// paper's Verizon LTE participants (Figs. 11 and 12b).
func VerizonLTEUsers() []User {
	return []User{
		{Name: "user1", Apps: []AppModel{IM(), Email(), MicroBlog()}},
		{Name: "user2", Apps: []AppModel{Social(), News(), Email()}},
		{Name: "user3", Apps: []AppModel{Game(), IM(), Social(), Email()}},
	}
}

// UserByName finds a user in a slice by name.
func UserByName(users []User, name string) (User, bool) {
	for _, u := range users {
		if u.Name == name {
			return u, true
		}
	}
	return User{}, false
}

// String describes the user mix.
func (u User) String() string {
	names := make([]string, len(u.Apps))
	for i, a := range u.Apps {
		names[i] = a.Name()
	}
	return fmt.Sprintf("%s%v", u.Name, names)
}
