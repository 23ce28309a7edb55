package figures_test

import (
	"strings"
	"testing"

	"hle/internal/figures"
)

func tinyOpts() figures.Options {
	return figures.Options{Threads: 4, Quick: true, Seed: 1, Budget: 100_000}
}

// TestEveryFigureRuns: each generator produces non-empty tables with
// consistent row widths at tiny scale.
func TestEveryFigureRuns(t *testing.T) {
	for _, f := range figures.All() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			tables := f.Run(tinyOpts())
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Header) == 0 {
					t.Fatalf("table %q has no header", tb.Title)
				}
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q has no rows", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Fatalf("table %q: row width %d != header width %d",
							tb.Title, len(row), len(tb.Header))
					}
				}
				rendered := tb.String()
				if !strings.Contains(rendered, tb.Header[0]) {
					t.Fatalf("table %q did not render its header", tb.Title)
				}
			}
		})
	}
}

// TestByID round-trips the registry.
func TestByID(t *testing.T) {
	for _, f := range figures.All() {
		got := figures.ByID(f.ID)
		if got == nil || got.Title != f.Title {
			t.Fatalf("ByID(%q) failed", f.ID)
		}
	}
	if figures.ByID("nope") != nil {
		t.Fatal("ByID of unknown id should be nil")
	}
}

// TestDeterministicFigures: the same options produce identical tables.
func TestDeterministicFigures(t *testing.T) {
	f := figures.ByID("3.1")
	a := f.Run(tinyOpts())
	b := f.Run(tinyOpts())
	if len(a) != len(b) {
		t.Fatal("table count mismatch")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("figure 3.1 table %d differs between identical runs:\n%s\nvs\n%s",
				i, a[i].String(), b[i].String())
		}
	}
}
