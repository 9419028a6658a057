package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeFormats writes the packets of src in each of tracegen's formats.
func writeFormats(t *testing.T, src func() trace.Source) map[string]string {
	t.Helper()
	tr, err := trace.Collect(src())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"text": writeTempTrace(t, func(f *os.File) error { return trace.WriteText(f, tr) }),
		"bin":  writeTempTrace(t, func(f *os.File) error { return trace.WriteBinary(f, tr) }),
		"pcap": writeTempTrace(t, func(f *os.File) error { return trace.WritePcap(f, tr) }),
		"stream": writeTempTrace(t, func(f *os.File) error {
			sw, err := trace.NewStreamWriter(f)
			if err != nil {
				return err
			}
			if _, _, err := trace.CopySource(sw, src()); err != nil {
				return err
			}
			return sw.Flush()
		}),
	}
}

// sliceReport renders the report of one materialized trace: the schemes
// compared for "all", else the policy pair against the status quo, each
// replayed by sim.Run over the slice.
func sliceReport(t *testing.T, tr trace.Trace, prof power.Profile, polName, actName string) string {
	t.Helper()
	var b bytes.Buffer
	opts := &sim.Options{BurstGap: time.Second}
	if polName == "all" {
		if err := compareAll(&b, tr, prof, opts); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	demote, err := makeDemote(polName, tr, prof)
	if err != nil {
		t.Fatal(err)
	}
	active, err := makeActive(actName, tr, prof, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := sim.Run(tr, prof, policy.StatusQuo{}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr, prof, demote, active, opts)
	if err != nil {
		t.Fatal(err)
	}
	printResult(&b, sq, res)
	return b.String()
}

// replayReport runs replayTrace on a file and returns its report.
func replayReport(t *testing.T, path, deviceIP string, prof power.Profile, polName, actName string) string {
	t.Helper()
	var b bytes.Buffer
	if err := replayTrace(&b, path, deviceIP, prof, polName, actName, time.Second); err != nil {
		t.Fatalf("%s %s+%s: %v", path, polName, actName, err)
	}
	return b.String()
}

// TestReplayTraceMatchesSliceReplay: in every format tracegen writes,
// under streamable, batching and trace-fitted policies and the scheme
// comparison, the report equals the one rendered from sim.Run over the
// trace readTrace decodes from the file.
func TestReplayTraceMatchesSliceReplay(t *testing.T) {
	prof := power.Verizon3G
	u := workload.Verizon3GUsers()[2]
	files := writeFormats(t, func() trace.Source { return u.Stream(5, time.Hour) })
	for format, path := range files {
		tf, err := probeTrace(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if streamed := tf.decode != nil; streamed != (format == "stream") {
			t.Fatalf("%s: streamed %t", format, streamed)
		}
		tr, err := readTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]string{
			{"makeidle", "none"}, {"makeidle", "learn"}, {"95iat", "none"}, {"makeidle", "fix"}, {"all", "none"},
		} {
			got := replayReport(t, path, "", prof, pair[0], pair[1])
			if want := sliceReport(t, tr, prof, pair[0], pair[1]); got != want {
				t.Errorf("%s %s+%s: report differs from the slice replay's\ngot:\n%s\nwant:\n%s", format, pair[0], pair[1], got, want)
			}
		}
	}
}

// rawRecord is one record of a hand-built raw-IPv4 capture.
type rawRecord struct {
	at       time.Duration
	src, dst netip.Addr
	size     int
}

// writeRawPcap writes the records as a microsecond pcap of bare IPv4
// headers (link type raw IP).
func writeRawPcap(t *testing.T, recs []rawRecord) string {
	t.Helper()
	le := binary.LittleEndian
	var b bytes.Buffer
	var gh [24]byte
	le.PutUint32(gh[0:4], 0xa1b2c3d4)
	le.PutUint16(gh[4:6], 2)
	le.PutUint16(gh[6:8], 4)
	le.PutUint32(gh[16:20], 65535)
	le.PutUint32(gh[20:24], 101)
	b.Write(gh[:])
	for _, r := range recs {
		var rh [16]byte
		le.PutUint32(rh[0:4], uint32(r.at/time.Second))
		le.PutUint32(rh[4:8], uint32(r.at%time.Second/time.Microsecond))
		le.PutUint32(rh[8:12], 20)
		le.PutUint32(rh[12:16], uint32(r.size))
		var ip [20]byte
		ip[0] = 0x45
		copy(ip[12:16], r.src.AsSlice())
		copy(ip[16:20], r.dst.AsSlice())
		b.Write(rh[:])
		b.Write(ip[:])
	}
	return writeTempTrace(t, func(f *os.File) error {
		_, err := f.Write(b.Bytes())
		return err
	})
}

var (
	phone  = netip.MustParseAddr("10.0.0.7")
	host   = netip.MustParseAddr("10.0.0.9")
	server = netip.MustParseAddr("192.0.2.1")
)

// routerCapture is a capture on a shared link: another host talks to the
// server more often than the phone does, so device inference picks the
// server, the one endpoint of every packet.
func routerCapture() []rawRecord {
	var recs []rawRecord
	at := time.Duration(0)
	for i := 0; i < 120; i++ {
		at += time.Duration(1+i%7) * 700 * time.Millisecond
		recs = append(recs, rawRecord{at, host, server, 80}, rawRecord{at + 30*time.Millisecond, server, host, 1400})
		if i%3 == 0 {
			recs = append(recs, rawRecord{at + 50*time.Millisecond, phone, server, 600}, rawRecord{at + 90*time.Millisecond, server, phone, 9000})
		}
	}
	return recs
}

// TestReplayTraceDeviceIP: -device-ip streams a pcap capture and sets
// packet directions by that address, where device inference would pick
// another; the report equals the slice replay of ReadPcap given the same
// address, and differs from the inferred device's.
func TestReplayTraceDeviceIP(t *testing.T) {
	recs := routerCapture()
	path := writeRawPcap(t, recs)
	tf, err := probeTrace(path, &trace.PcapOptions{DeviceIP: phone})
	if err != nil {
		t.Fatal(err)
	}
	if tf.decode == nil {
		t.Fatal("a pcap capture with -device-ip was not streamed")
	}
	tr, err := tf.collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != len(recs) {
		t.Fatalf("%d packets, want %d", len(tr), len(recs))
	}
	for i, r := range recs {
		if want := map[bool]trace.Direction{true: trace.Out, false: trace.In}[r.src == phone]; tr[i].Dir != want {
			t.Fatalf("packet %d from %v: direction %v, want %v", i, r.src, tr[i].Dir, want)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	explicit, err := trace.ReadPcap(f, &trace.PcapOptions{DeviceIP: phone})
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	prof := power.Verizon3G
	for _, pair := range [][2]string{{"makeidle", "none"}, {"95iat", "fix"}} {
		got := replayReport(t, path, phone.String(), prof, pair[0], pair[1])
		if want := sliceReport(t, explicit, prof, pair[0], pair[1]); got != want {
			t.Errorf("%s+%s: -device-ip report differs from the slice replay's\ngot:\n%s\nwant:\n%s", pair[0], pair[1], got, want)
		}
		if got == sliceReport(t, inferred, prof, pair[0], pair[1]) {
			t.Errorf("%s+%s: -device-ip report equals the inferred device's", pair[0], pair[1])
		}
	}
}

// TestReplayTraceDeviceIPOutOfOrder: a capture whose timestamps regress
// replays, sorted, without -device-ip, and fails with PcapSource's
// out-of-order error with it.
func TestReplayTraceDeviceIPOutOfOrder(t *testing.T) {
	path := writeRawPcap(t, []rawRecord{
		{0, phone, server, 80}, {2 * time.Second, server, phone, 1400}, {time.Second, phone, server, 80},
	})
	prof := power.Verizon3G
	replayReport(t, path, "", prof, "makeidle", "none")
	err := replayTrace(io.Discard, path, phone.String(), prof, "makeidle", "none", time.Second)
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("got %v, want PcapSource's out-of-order error", err)
	}
	if err := replayTrace(io.Discard, path, "10.0.0", prof, "makeidle", "none", time.Second); err == nil ||
		!strings.Contains(err.Error(), "-device-ip") {
		t.Fatalf("bad -device-ip: got %v", err)
	}
}
