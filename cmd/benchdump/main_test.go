package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadBaselines: a JSON array of records parses; a single object (the
// retired one-record format) and an empty array are rejected with a hint
// to refresh the file.
func TestReadBaselines(t *testing.T) {
	for _, c := range []struct {
		name, body string
		records    int
	}{
		{"array", `[{"bench": "BenchmarkGridSweep", "cells_per_sec": 1}, {"bench": "BenchmarkGridSweepWide"}]`, 2},
		{"object", `{"bench": "BenchmarkGridSweep", "cells_per_sec": 1}`, 0},
		{"empty array", `[]`, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH.json")
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := readBaselines(path)
			if c.records == 0 {
				if err == nil || !strings.Contains(err.Error(), "refresh it with -out") {
					t.Fatalf("got %d records, err %v; want a refresh-it-with -out error", len(got), err)
				}
				return
			}
			if err != nil || len(got) != c.records || got[0].Bench != "BenchmarkGridSweep" || got[0].CellsPerSec != 1 {
				t.Fatalf("got %+v, err %v; want %d records", got, err, c.records)
			}
		})
	}
}
