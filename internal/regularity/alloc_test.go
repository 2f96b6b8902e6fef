package regularity

import (
	"testing"

	"repro/internal/layout"
)

// The scratch-reuse contract of the Scanner: after a warm-up scan,
// re-analyzing the same layout and pitch allocates nothing — the window
// buckets, canonicalization scratch, hash buffer, pattern list, and
// tallies are all reused.

func TestScannerWarmAnalyzeZeroAlloc(t *testing.T) {
	l, err := layout.GenerateRandomLogic(layout.RandomLogicConfig{
		Cells: 150, RowUtil: 0.7, RouteTracks: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner()
	want, err := s.Analyze(l, 60)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		got, err := s.Analyze(l, 60)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("warm Analyze diverged: %+v != %+v", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Scanner.Analyze allocates %v per run, want 0", allocs)
	}
}

func TestScannerMatchesPackageAnalyze(t *testing.T) {
	l, err := layout.GenerateSRAMArray(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner()
	for _, pitch := range []int{15, 30, 60} {
		fromScanner, err := s.Analyze(l, pitch)
		if err != nil {
			t.Fatal(err)
		}
		fromPackage, err := Analyze(l, pitch)
		if err != nil {
			t.Fatal(err)
		}
		if fromScanner != fromPackage {
			t.Fatalf("pitch %d: scanner %+v != package %+v", pitch, fromScanner, fromPackage)
		}
	}
}
