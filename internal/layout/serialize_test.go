package layout

import (
	"slices"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	orig, err := GenerateRandomLogic(RandomLogicConfig{Cells: 60, RowUtil: 0.7, RouteTracks: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Write(&b, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.Width != orig.Width || back.Height != orig.Height || back.Transistors != orig.Transistors {
		t.Fatalf("header mismatch: %+v vs %+v", back, orig)
	}
	if len(back.Rects) != len(orig.Rects) {
		t.Fatalf("rect count %d vs %d", len(back.Rects), len(orig.Rects))
	}
	for i := range back.Rects {
		if back.Rects[i] != orig.Rects[i] {
			t.Fatalf("rect %d mismatch: %+v vs %+v", i, back.Rects[i], orig.Rects[i])
		}
	}
	// Derived quantities survive.
	sdO, _ := orig.Sd()
	sdB, _ := back.Sd()
	if sdO != sdB {
		t.Fatalf("s_d changed through serialization: %v vs %v", sdO, sdB)
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
LAYOUT demo 20 20 2

RECT metal1 0 0 10 2
# another comment
END
`
	l, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "demo" || len(l.Rects) != 1 || l.Rects[0].Layer != Metal1 {
		t.Fatalf("parsed %+v", l)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no header":        "RECT metal1 0 0 1 1\nEND\n",
		"no end":           "LAYOUT d 10 10 1\n",
		"dup header":       "LAYOUT d 10 10 1\nLAYOUT e 10 10 1\nEND\n",
		"after end":        "LAYOUT d 10 10 1\nEND\nRECT metal1 0 0 1 1\n",
		"bad record":       "LAYOUT d 10 10 1\nBOGUS\nEND\n",
		"bad layer":        "LAYOUT d 10 10 1\nRECT metal9 0 0 1 1\nEND\n",
		"bad coord":        "LAYOUT d 10 10 1\nRECT metal1 0 0 x 1\nEND\n",
		"short rect":       "LAYOUT d 10 10 1\nRECT metal1 0 0 1\nEND\n",
		"short header":     "LAYOUT d 10 10\nEND\n",
		"bad header num":   "LAYOUT d ten 10 1\nEND\n",
		"end before head":  "END\n",
		"escaping rect":    "LAYOUT d 10 10 1\nRECT metal1 0 0 20 5\nEND\n",
		"zero-extent rect": "LAYOUT d 10 10 1\nRECT metal1 3 3 3 5\nEND\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted malformed input", name)
		}
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	bad := &Layout{Name: "b", Width: 0, Height: 1}
	if err := Write(&strings.Builder{}, bad); err == nil {
		t.Fatal("accepted invalid layout")
	}
	spaced := &Layout{Name: "has space", Width: 10, Height: 10, Transistors: 1}
	if err := Write(&strings.Builder{}, spaced); err == nil {
		t.Fatal("accepted whitespace in name")
	}
}

func TestSRAMRoundTripPreservesRegularityInput(t *testing.T) {
	orig, err := GenerateSRAMArray(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Write(&b, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for layer := Layer(0); layer < numLayers; layer++ {
		if !slices.Equal(orig.LayerRects(layer), back.LayerRects(layer)) {
			t.Fatalf("layer %v geometry changed in the round trip", layer)
		}
	}
}
