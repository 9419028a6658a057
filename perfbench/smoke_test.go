package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildDaemon builds rrcsimd from this checkout.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rrcsimd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/rrcsimd").CombinedOutput()
	if err != nil {
		t.Fatalf("building rrcsimd: %v\n%s", err, out)
	}
	return bin
}

// declared returns BENCHMARK.json's end-to-end and per-layer metric names.
func declared(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

// TestSmokeAllWorkloads takes every workload through the whole path at
// smoke scale: a real daemon over HTTP, the stream wait, the correctness
// gate, the traced run and its ledger. Each workload runs three times
// with one seed, so the exact-count guard compares runs.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	bin := buildDaemon(t)
	work := t.TempDir()
	e2e, perLayer := declared(t)
	for _, wl := range []string{"paper-grid", "tail-sweep", "resume"} {
		for _, traced := range []bool{false, true, false} {
			b, err := run(config{workload: wl, seed: 7, seconds: 0.3, trace: traced, smoke: true,
				daemon: bin, work: work, root: ".."})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if len(b.problems) > 0 || b.failed > 0 {
				t.Fatalf("%s trace=%v: %d failed: %v", wl, traced, b.failed, b.problems)
			}
			want := e2e
			if traced {
				want = perLayer
			}
			for _, name := range want {
				if m, ok := b.metrics[name]; !ok || m.layer != traced {
					t.Errorf("%s trace=%v: metric %s missing", wl, traced, name)
				}
			}
		}
	}
}

func TestCheckBytesCountsMismatch(t *testing.T) {
	b := &bench{}
	b.checkBytes(referenceResult{json: []byte(`{"cells":[]}`)}, []byte(`{"cells":[1]}`), "job")
	if b.failed != 1 || len(b.problems) != 1 {
		t.Fatalf("a result differing from its reference gave failed=%d problems=%v", b.failed, b.problems)
	}
}

func TestGuardCountsCatchesChangedCount(t *testing.T) {
	work := t.TempDir()
	runWith := func(sources string, v float64) *bench {
		b := &bench{config: config{workload: "w", seed: 1, work: work}, sources: sources,
			counts: map[string]float64{"trace.slab_bytes_per_pkt": v}}
		if err := b.guardCounts(); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if b := runWith("a", 6.5); len(b.problems) != 0 {
		t.Fatalf("first run: %v", b.problems)
	}
	if b := runWith("a", 6.5); len(b.problems) != 0 {
		t.Fatalf("same count again: %v", b.problems)
	}
	if b := runWith("b", 6.25); len(b.problems) != 0 {
		t.Fatalf("a run of other sources was compared: %v", b.problems)
	}
	if b := runWith("a", 6.75); len(b.problems) != 1 {
		t.Fatalf("changed count passed the guard: %v", b.problems)
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{10, 0, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.1, 10},
		{[]float64{3, 1}, 0.1, 1.2},
		{[]float64{7}, 0.1, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
}
