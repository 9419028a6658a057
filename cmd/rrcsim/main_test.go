package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

func writeTempTrace(t *testing.T, write func(f *os.File) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadTraceAllFormats(t *testing.T) {
	tr := workload.Generate(workload.Game(), 1, 30*time.Minute)
	writers := map[string]func(f *os.File) error{
		"text":   func(f *os.File) error { return trace.WriteText(f, tr) },
		"binary": func(f *os.File) error { return trace.WriteBinary(f, tr) },
		"pcap":   func(f *os.File) error { return trace.WritePcap(f, tr) },
	}
	for name, w := range writers {
		path := writeTempTrace(t, w)
		got, err := readTrace(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(tr) {
			t.Fatalf("%s: %d packets, want %d", name, len(got), len(tr))
		}
	}
}

func TestReadTraceMissing(t *testing.T) {
	if _, err := readTrace("/nonexistent/file"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReadTraceTinyTextFile: a text trace shorter than the 8-byte stream
// magic must still parse (the stream probe reports not-a-stream, not a
// hard error).
func TestReadTraceTinyTextFile(t *testing.T) {
	path := writeTempTrace(t, func(f *os.File) error {
		_, err := f.WriteString("0 in 5\n")
		return err
	})
	tr, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 1 || tr[0].Size != 5 {
		t.Fatalf("tiny trace parsed as %+v", tr)
	}
}

// TestReadTraceCorruptStream: a truncated rrcstream file must surface the
// stream corruption diagnostic, not fall through to a text-parse error,
// whether it is decoded whole or replayed.
func TestReadTraceCorruptStream(t *testing.T) {
	full := writeTempTrace(t, func(f *os.File) error {
		return trace.WriteStream(f, workload.Generate(workload.Email(), 2, time.Hour))
	})
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	trunc := writeTempTrace(t, func(f *os.File) error {
		_, err := f.Write(data[:len(data)-1])
		return err
	})
	if _, err := readTrace(trunc); err == nil {
		t.Fatal("truncated stream accepted")
	} else if !strings.Contains(err.Error(), "stream frame") {
		t.Fatalf("got %v, want a stream-frame diagnostic", err)
	}
	for _, pol := range []string{"makeidle", "95iat", "all"} {
		if err := replayTrace(io.Discard, trunc, "", power.Verizon3G, pol, "none", time.Second); err == nil {
			t.Fatalf("%s: truncated stream accepted", pol)
		} else if !strings.Contains(err.Error(), "stream frame") {
			t.Fatalf("%s: got %v, want a stream-frame diagnostic", pol, err)
		}
	}
}

func TestMakeDemoteAll(t *testing.T) {
	tr := workload.Generate(workload.Email(), 1, time.Hour)
	prof := power.Verizon3G
	for _, name := range []string{"statusquo", "4.5s", "95iat", "oracle", "makeidle",
		"fixedtail(wait=2s)", "pctiat(q=0.9)", "makeidle(window=250)"} {
		d, err := makeDemote(name, tr, prof)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d == nil {
			t.Fatalf("%s: nil policy", name)
		}
	}
	err := makeDemoteErr(t, "nonsense", tr, prof)
	// The rejection must carry the registry's catalog: valid names and
	// their parameter schemas, not a bare "unknown policy".
	for _, want := range []string{"nonsense", "makeidle", "fixedtail", "wait", "default 4.5s", "95iat"} {
		if !strings.Contains(err, want) {
			t.Fatalf("unknown-policy error missing %q:\n%s", want, err)
		}
	}
	if bad := makeDemoteErr(t, "fixedtail(wait=20m)", tr, prof); !strings.Contains(bad, "maximum") {
		t.Fatalf("out-of-bounds error not explained:\n%s", bad)
	}
}

func makeDemoteErr(t *testing.T, name string, tr trace.Trace, prof power.Profile) string {
	t.Helper()
	_, err := makeDemote(name, tr, prof)
	if err == nil {
		t.Fatalf("%s accepted", name)
	}
	return err.Error()
}

func TestMakeActiveAll(t *testing.T) {
	tr := workload.Generate(workload.Email(), 1, time.Hour)
	prof := power.Verizon3G
	if a, err := makeActive("none", tr, prof, time.Second); err != nil || a != nil {
		t.Fatalf("none: %v %v", a, err)
	}
	for _, name := range []string{"learn", "fix", "learn(maxdelay=5s,gamma=0.01)"} {
		a, err := makeActive(name, tr, prof, time.Second)
		if err != nil || a == nil {
			t.Fatalf("%s: %v %v", name, a, err)
		}
	}
	_, err := makeActive("nonsense", tr, prof, time.Second)
	if err == nil {
		t.Fatal("unknown active policy accepted")
	}
	for _, want := range []string{"learn", "fix", "maxdelay", "gamma"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-active error missing %q:\n%v", want, err)
		}
	}
}

// TestFleetSchemeLabels: flat names keep legacy summary labels,
// parameterized specs derive theirs.
func TestFleetSchemeLabels(t *testing.T) {
	cases := map[[2]string]string{
		{"makeidle", "none"}:               "makeidle",
		{"makeidle", "learn"}:              "makeidle+learn",
		{"4.5s", "none"}:                   "4.5s",
		{" makeidle ", "none"}:             "makeidle", // padded flags resolve trimmed
		{"fixedtail(wait=2s)", "none"}:     "fixedtail(wait=2s)",
		{"makeidle", "learn(maxdelay=5s)"}: "makeidle+learn(maxdelay=5s)",
		// Mixed forms: the flat half keeps its legacy spelling.
		{"4.5s", "learn(maxdelay=5s)"}: "4.5s+learn(maxdelay=5s)",
	}
	for in, want := range cases {
		ss, err := fleetSchemeSpec(in[0], in[1], time.Second)
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		if ss.Label != want {
			t.Errorf("fleetSchemeSpec(%v) label %q, want %q", in, ss.Label, want)
		}
	}
	if _, err := fleetSchemeSpec("makeidle", "procrastinate", time.Second); err == nil {
		t.Fatal("unknown active accepted in fleet mode")
	}
}
