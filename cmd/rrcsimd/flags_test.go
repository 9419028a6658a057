package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestEveryFlagDocumentedInREADME is the flag-documentation drift guard:
// every flag rrcsimd registers must be mentioned (as `-name`) in the
// repository README's daemon docs. registerFlags declares the daemon's
// flags in one place precisely so this test enumerates the real set — a
// new flag that ships without README coverage fails here, not in review.
func TestEveryFlagDocumentedInREADME(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)

	fs := flag.NewFlagSet("rrcsimd", flag.ContinueOnError)
	registerFlags(fs)
	var missing []string
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(doc, "-"+f.Name) {
			missing = append(missing, f.Name)
		}
	})
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("flags undocumented in README.md: -%s",
			strings.Join(missing, ", -"))
	}
}

// TestFlagStructCoversFlagSet pins registerFlags as the single source of
// truth: the number of registered flags must match the daemonFlags struct
// so a flag declared elsewhere (and so invisible to the drift guard
// above) fails loudly.
func TestFlagStructCoversFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("rrcsimd", flag.ContinueOnError)
	registerFlags(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	fields := reflect.TypeOf(daemonFlags{}).NumField()
	if n != fields {
		t.Fatalf("registerFlags declared %d flags, daemonFlags has %d fields — keep them in one place",
			n, fields)
	}
}
