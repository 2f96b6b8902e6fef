package devices

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestTableHas49Rows(t *testing.T) {
	all := All()
	if len(all) != 49 {
		t.Fatalf("Table A1 has %d rows, want 49", len(all))
	}
	for i, d := range all {
		if d.ID != i+1 {
			t.Fatalf("row %d has ID %d", i, d.ID)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].SdLogic = -1
	if All()[0].SdLogic == -1 {
		t.Fatal("All exposes internal state")
	}
}

func TestRowSelfConsistency(t *testing.T) {
	// Every row must satisfy eq (2) exactly: recomputing s_d from the
	// implied areas returns the stored value.
	for _, d := range All() {
		if d.LogicTransistors > 0 {
			sd, err := core.SdFromLayout(d.LogicAreaCM2(), d.LogicTransistors, d.LambdaUM)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sd-d.SdLogic) > 1e-9*d.SdLogic {
				t.Errorf("row %d (%s): recomputed logic s_d %v != stored %v", d.ID, d.Name, sd, d.SdLogic)
			}
		}
		if d.MemTransistors > 0 {
			sd, err := core.SdFromLayout(d.MemAreaCM2(), d.MemTransistors, d.LambdaUM)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sd-d.SdMem) > 1e-9*d.SdMem {
				t.Errorf("row %d (%s): recomputed mem s_d %v != stored %v", d.ID, d.Name, sd, d.SdMem)
			}
		}
	}
}

// sdSummary summarizes the logic or memory s_d of every Table A1 device
// that has logic or memory.
func sdSummary(t *testing.T, memory bool) stats.Summary {
	t.Helper()
	var xs []float64
	for _, d := range All() {
		switch {
		case memory && d.MemTransistors > 0:
			xs = append(xs, d.SdMem)
		case !memory && d.LogicTransistors > 0:
			xs = append(xs, d.SdLogic)
		}
	}
	s, err := stats.Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPaperHeadlineRanges(t *testing.T) {
	logic := sdSummary(t, false)
	// §2.2.2: logic s_d ranges from ≈100 up toward 1000.
	if logic.Min < 95 || logic.Min > 130 {
		t.Errorf("min logic s_d = %v, want ≈100–130", logic.Min)
	}
	if logic.Max < 600 || logic.Max > 1000 {
		t.Errorf("max logic s_d = %v, want 600–1000", logic.Max)
	}
	mem := sdSummary(t, true)
	// SRAM values "in range of 30".
	if mem.Min < 25 || mem.Min > 45 {
		t.Errorf("min memory s_d = %v, want ≈30–45", mem.Min)
	}
	if mem.Median > 100 {
		t.Errorf("median memory s_d = %v, want under 100", mem.Median)
	}
	if logic.Median < 2*mem.Median {
		t.Errorf("logic median %v not well above memory median %v", logic.Median, mem.Median)
	}
}

func TestIntelDensityWorsens(t *testing.T) {
	fit, err := VendorTrend("Intel")
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope <= 0 {
		t.Fatalf("Intel logic s_d slope = %v squares/year, want positive (worsening density)", fit.Slope)
	}
	// Concrete anchor: Pentium P5 (1993) vs Pentium II on 0.25 µm (1998).
	p5, err := ByID(2)
	if err != nil {
		t.Fatal(err)
	}
	pii, err := ByID(9)
	if err != nil {
		t.Fatal(err)
	}
	if pii.SdLogic < 2*p5.SdLogic {
		t.Fatalf("Pentium II s_d %v not a two-fold increase over P5 %v", pii.SdLogic, p5.SdLogic)
	}
}

func TestAMDDenserThanIntelUntilK7(t *testing.T) {
	amd, err := MeanLogicSd("AMD", 1999)
	if err != nil {
		t.Fatal(err)
	}
	intel, err := MeanLogicSd("Intel", 1999)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-K7, the market follower used cheaper (denser) transistors.
	if amd >= intel {
		t.Fatalf("pre-1999 AMD mean s_d %v not below Intel %v", amd, intel)
	}
	k7, err := ByID(17)
	if err != nil {
		t.Fatal(err)
	}
	if k7.Name != "K7 (Athlon)" {
		t.Fatalf("row 17 = %q, want the K7", k7.Name)
	}
	if k7.SdLogic <= 300 {
		t.Fatalf("K7 s_d = %v, paper says well above 300", k7.SdLogic)
	}
}

func TestIndustryTrendPositive(t *testing.T) {
	fit, err := IndustryTrend()
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope <= 0 {
		t.Fatalf("industry slope = %v, want positive", fit.Slope)
	}
	if fit.N < 30 {
		t.Fatalf("industry fit over %d CPUs, want the bulk of the table", fit.N)
	}
}

func TestKindSummaryOrdering(t *testing.T) {
	sum, n := map[Kind]float64{}, map[Kind]float64{}
	for _, d := range All() {
		if d.LogicTransistors > 0 {
			sum[d.Kind] += d.SdLogic
			n[d.Kind]++
		}
	}
	mean := func(k Kind) float64 { return sum[k] / n[k] }
	// ASIC-class parts are the sparse tail; their mean must exceed CPUs'.
	if mean(KindASIC) <= mean(KindCPU) {
		t.Fatalf("ASIC mean s_d %v not above CPU mean %v", mean(KindASIC), mean(KindCPU))
	}
	// MPEG parts too (544.5, 350.9, 408.1).
	if mean(KindMPEG) <= mean(KindCPU) {
		t.Fatalf("MPEG mean s_d %v not above CPU mean %v", mean(KindMPEG), mean(KindCPU))
	}
}

func TestFigure1Series(t *testing.T) {
	pts := Figure1Series()
	if len(pts) != 48 { // 49 rows minus the memory-only SRAM
		t.Fatalf("Figure 1 has %d points, want 48", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Year < pts[i-1].Year {
			t.Fatal("Figure 1 points not ordered by year")
		}
	}
	for _, p := range pts {
		if p.SdLogic <= 0 || p.LambdaUM <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
}

func TestByAccessors(t *testing.T) {
	if _, err := ByID(0); err == nil {
		t.Fatal("accepted missing ID")
	}
}

func TestSdTotalBetweenComponents(t *testing.T) {
	for _, d := range All() {
		if d.MemTransistors == 0 || d.LogicTransistors == 0 {
			continue
		}
		total, err := d.SdTotal()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := d.SdMem, d.SdLogic
		if lo > hi {
			lo, hi = hi, lo
		}
		if total < lo-1e-9 || total > hi+1e-9 {
			t.Errorf("row %d: blended s_d %v outside [%v, %v]", d.ID, total, lo, hi)
		}
	}
}

func TestDieAreasPlausible(t *testing.T) {
	// Every die in the table should land between 0.1 and 6 cm² — the
	// physical envelope of the era's reticles.
	for _, d := range All() {
		a := d.DieAreaCM2()
		if a < 0.1 || a > 6 {
			t.Errorf("row %d (%s): die area %v cm² implausible", d.ID, d.Name, a)
		}
	}
}

func TestMeanLogicSdValidation(t *testing.T) {
	if _, err := MeanLogicSd("NoSuchVendor", 0); err == nil {
		t.Fatal("accepted unknown vendor")
	}
	if _, err := VendorTrend("Sun"); err == nil {
		t.Fatal("accepted single-row vendor trend") // Sun has one CPU row
	}
}
