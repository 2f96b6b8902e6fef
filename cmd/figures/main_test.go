package main

import (
	"context"
	"io"
	"testing"
)

func TestArtifactsComplete(t *testing.T) {
	arts := artifacts(context.Background())
	// The paper's 5 artifacts plus 22 extension studies.
	if len(arts) != 27 {
		t.Fatalf("%d artifacts, want 27", len(arts))
	}
	ids, titles := map[string]bool{}, map[string]bool{}
	for _, a := range arts {
		if a.id == "" || a.title == "" || a.run == nil {
			t.Fatalf("incomplete artifact %+v", a)
		}
		if ids[a.id] {
			t.Fatalf("duplicate artifact id %q", a.id)
		}
		if titles[a.title] {
			t.Fatalf("duplicate artifact title %q", a.title)
		}
		ids[a.id], titles[a.title] = true, true
	}
	for _, id := range []string{"tablea1", "fig1", "fig2", "fig3", "fig4", "x1", "x22"} {
		if !ids[id] {
			t.Fatalf("artifact %q missing", id)
		}
	}
}

// TestRunEveryArtifact regenerates the whole harness, in both output
// modes, with its parameters as the CLI uses them.
func TestRunEveryArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness smoke test")
	}
	for _, csv := range []bool{false, true} {
		if err := run(context.Background(), io.Discard, "", csv); err != nil {
			t.Fatalf("csv=%v: %v", csv, err)
		}
	}
}

func TestRunSingleArtifacts(t *testing.T) {
	// The cheap artifacts exercise every emit path (table, figure, both).
	for _, id := range []string{"tablea1", "fig2", "fig3", "x1", "x5", "x7", "x12"} {
		if err := run(context.Background(), io.Discard, id, false); err != nil {
			t.Errorf("run(%q): %v", id, err)
		}
	}
}

func TestRunCSVMode(t *testing.T) {
	for _, id := range []string{"tablea1", "fig2", "x5"} {
		if err := run(context.Background(), io.Discard, id, true); err != nil {
			t.Errorf("run(%q, csv): %v", id, err)
		}
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	if err := run(context.Background(), io.Discard, "nope", false); err == nil {
		t.Fatal("accepted unknown artifact")
	}
}

func TestRunCaseInsensitive(t *testing.T) {
	if err := run(context.Background(), io.Discard, "FIG2", false); err != nil {
		t.Fatalf("case-insensitive match failed: %v", err)
	}
}
