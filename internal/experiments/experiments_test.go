package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/devices"
	"repro/internal/stats"
)

func TestTableA1Regeneration(t *testing.T) {
	rows, tbl, err := TableA1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 49 {
		t.Fatalf("rows = %d, want 49", len(rows))
	}
	if len(tbl.Rows) != 49 {
		t.Fatalf("table rows = %d, want 49", len(tbl.Rows))
	}
	out := tbl.String()
	for _, want := range []string{"K7", "Pentium", "ATM", "SRAM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q", want)
		}
	}
	// Area columns are consistent: mem + logic = die for split rows.
	for _, r := range rows {
		if got := r.MemAreaCM2 + r.LogicArea; got < r.DieCM2-1e-9 || got > r.DieCM2+1e-9 {
			t.Fatalf("row %d: areas do not add up", r.ID)
		}
	}
}

func TestFigure1Shapes(t *testing.T) {
	res, fig, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.IndustryTrend.Slope <= 0 {
		t.Fatalf("industry trend slope = %v, want positive", res.IndustryTrend.Slope)
	}
	if res.IntelTrend.Slope <= 0 {
		t.Fatalf("Intel trend slope = %v, want positive", res.IntelTrend.Slope)
	}
	if res.AMDMeanPreK7 >= res.IntelMeanPre {
		t.Fatalf("pre-K7 AMD mean %v not below Intel %v", res.AMDMeanPreK7, res.IntelMeanPre)
	}
	if res.K7Sd <= 300 {
		t.Fatalf("K7 s_d = %v, want above 300", res.K7Sd)
	}
	if len(res.Points) != 48 {
		t.Fatalf("points = %d, want 48", len(res.Points))
	}
}

func TestFigure2Shape(t *testing.T) {
	rows, fig, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	// Implied s_d falls monotonically in time (rows are chronological,
	// λ shrinking).
	for i := 1; i < len(rows); i++ {
		if rows[i].ImpliedSd >= rows[i-1].ImpliedSd {
			t.Fatalf("implied s_d not falling at %d", rows[i].Year)
		}
	}
	// First node ≈ 250 squares per transistor.
	if rows[0].ImpliedSd < 230 || rows[0].ImpliedSd > 270 {
		t.Fatalf("1999 implied s_d = %v, want ≈250", rows[0].ImpliedSd)
	}
}

func TestFigure3Shape(t *testing.T) {
	rows, fig, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("figure 3 series = %d, want 3", len(fig.Series))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].RequiredSd >= rows[i-1].RequiredSd {
			t.Fatalf("required s_d not falling at %d", rows[i].Year)
		}
		if rows[i].Ratio <= rows[i-1].Ratio {
			t.Fatalf("ratio not rising at %d", rows[i].Year)
		}
	}
	last := rows[len(rows)-1]
	// The contradiction: required s_d ends at/below the full-custom limit
	// while industry runs 300+.
	if last.RequiredSd > 110 {
		t.Fatalf("terminal required s_d = %v, want ≤ ~100", last.RequiredSd)
	}
	var logicSd []float64
	for _, p := range devices.Figure1Series() {
		logicSd = append(logicSd, p.SdLogic)
	}
	logic, err := stats.Summarize(logicSd)
	if err != nil {
		t.Fatal(err)
	}
	if last.RequiredSd >= logic.Median {
		t.Fatalf("required s_d %v should sit far below the industrial median %v", last.RequiredSd, logic.Median)
	}
}

func TestFigure4Shapes(t *testing.T) {
	cases := Figure4Cases()
	if len(cases) != 2 {
		t.Fatalf("cases = %d, want the paper's two panels", len(cases))
	}
	low, _, err := Figure4(cases[0], 120)
	if err != nil {
		t.Fatal(err)
	}
	high, _, err := Figure4(cases[1], 120)
	if err != nil {
		t.Fatal(err)
	}
	for i := range figure4Nodes {
		// U-shape: optimum interior.
		lo, hi := low[i].Points[0], low[i].Points[len(low[i].Points)-1]
		if !(low[i].Optimum.Breakdown.Total < lo.Breakdown.Total && low[i].Optimum.Breakdown.Total < hi.Breakdown.Total) {
			t.Fatalf("node %v: low-volume optimum not interior", figure4Nodes[i])
		}
		// The optimum moves to denser design at high volume...
		if !(high[i].Optimum.Sd < low[i].Optimum.Sd) {
			t.Fatalf("node %v: high-volume optimal s_d %v not below low-volume %v",
				figure4Nodes[i], high[i].Optimum.Sd, low[i].Optimum.Sd)
		}
		// ...and the whole curve is cheaper.
		if !(high[i].Optimum.Breakdown.Total < low[i].Optimum.Breakdown.Total) {
			t.Fatalf("node %v: high-volume optimum not cheaper", figure4Nodes[i])
		}
	}
	// Smaller λ at fixed s_d and volume → cheaper transistor (λ² wins over
	// the mask growth at these volumes).
	if !(low[len(low)-1].Optimum.Breakdown.Total < low[0].Optimum.Breakdown.Total) {
		t.Fatalf("shrink did not cheapen the optimal transistor")
	}
	if _, _, err := Figure4(cases[0], 1); err == nil {
		t.Fatal("accepted 1-point sweep")
	}
}

func TestOptimalSdVsVolumeMonotone(t *testing.T) {
	rows, fig, err := OptimalSdVsVolume(500, 1e6, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].OptimalSd > rows[i-1].OptimalSd+1e-6 {
			t.Fatalf("optimal s_d not (weakly) falling with volume at %v wafers", rows[i].Wafers)
		}
		if rows[i].Cost >= rows[i-1].Cost {
			t.Fatalf("optimal cost not falling with volume at %v wafers", rows[i].Wafers)
		}
	}
	span := rows[0].OptimalSd - rows[len(rows)-1].OptimalSd
	if span < 50 {
		t.Fatalf("optimal s_d moved only %v squares across 3 decades of volume — §3.1 says 'substantially'", span)
	}
	if _, _, err := OptimalSdVsVolume(10, 5, 4); err == nil {
		t.Fatal("accepted inverted range")
	}
}

func TestYieldModelComparisonTracks(t *testing.T) {
	lambdas := []float64{0.2, 0.6, 1.0, 1.6}
	rows, fig, err := YieldModelComparison(lambdas, 1.0, 60_000, 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		dP := abs(r.Measured - r.Poisson)
		dNB := abs(r.MeasuredC - r.NegBin)
		if dP > 0.02 {
			t.Errorf("λ=%v: uniform measurement off Poisson by %v", r.Lambda, dP)
		}
		if dNB > 0.03 {
			t.Errorf("λ=%v: clustered measurement off NB by %v", r.Lambda, dNB)
		}
		// Clustering raises yield at fixed λ.
		if r.Lambda >= 0.6 && r.MeasuredC <= r.Measured {
			t.Errorf("λ=%v: clustered yield %v not above uniform %v", r.Lambda, r.MeasuredC, r.Measured)
		}
	}
	if _, _, err := YieldModelComparison(nil, 1, 100, 1); err == nil {
		t.Fatal("accepted empty lambdas")
	}
	if _, _, err := YieldModelComparison(lambdas, 0, 100, 1); err == nil {
		t.Fatal("accepted zero alpha")
	}
	if _, _, err := YieldModelComparison(lambdas, 1, 0, 1); err == nil {
		t.Fatal("accepted zero trials")
	}
}

func TestUtilizationCrossoverShape(t *testing.T) {
	res, fig, err := UtilizationCrossover(0.4, 10, 1e6, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Crossover <= 10 || res.Crossover >= 1e6 {
		t.Fatalf("crossover = %v, want interior", res.Crossover)
	}
	// FPGA wins below, ASIC above.
	for _, r := range res.Rows {
		if r.Wafers < res.Crossover/2 && r.FPGACost >= r.ASICCost {
			t.Fatalf("at %v wafers FPGA %v not below ASIC %v", r.Wafers, r.FPGACost, r.ASICCost)
		}
		if r.Wafers > res.Crossover*2 && r.ASICCost >= r.FPGACost {
			t.Fatalf("at %v wafers ASIC %v not below FPGA %v", r.Wafers, r.ASICCost, r.FPGACost)
		}
	}
	// Better utilization moves the crossover down (FPGA stays attractive
	// longer when it wastes less).
	res2, _, err := UtilizationCrossover(0.8, 10, 1e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Crossover <= res.Crossover {
		t.Fatalf("u=0.8 crossover %v not above u=0.4 %v", res2.Crossover, res.Crossover)
	}
	if _, _, err := UtilizationCrossover(1.5, 10, 100, 4); err == nil {
		t.Fatal("accepted u > 1")
	}
}

func TestRegularityStudyMonotone(t *testing.T) {
	rows, tbl, err := RegularityStudy(33)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("styles = %d, want 4", len(rows))
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
	byStyle := map[string]RegularityRow{}
	for _, r := range rows {
		byStyle[r.Style] = r
	}
	sram, sparse := byStyle["sram-array"], byStyle["asic-sparse"]
	if !(sram.Regularity > sparse.Regularity) {
		t.Fatalf("SRAM regularity %v not above sparse ASIC %v", sram.Regularity, sparse.Regularity)
	}
	if !(sram.Sigma < sparse.Sigma) {
		t.Fatalf("SRAM σ %v not below sparse ASIC %v", sram.Sigma, sparse.Sigma)
	}
	if !(sram.Iterations < sparse.Iterations) {
		t.Fatalf("SRAM iterations %v not below sparse ASIC %v", sram.Iterations, sparse.Iterations)
	}
	if !(sram.DesignCost < sparse.DesignCost) {
		t.Fatalf("SRAM design cost %v not below sparse ASIC %v", sram.DesignCost, sparse.DesignCost)
	}
	if !(sram.MeasuredSd < sparse.MeasuredSd) {
		t.Fatalf("SRAM s_d %v not below sparse ASIC %v", sram.MeasuredSd, sparse.MeasuredSd)
	}
}

func TestGrossDieStudyShape(t *testing.T) {
	rows, tbl, err := GrossDieStudy([]float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 wafers × 3 die sizes
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
	for _, r := range rows {
		if r.AreaRatio < r.Exact {
			t.Fatalf("area-ratio %d below exact %d — must overestimate", r.AreaRatio, r.Exact)
		}
		if r.Exact <= 0 {
			t.Fatalf("exact count %d", r.Exact)
		}
	}
	if _, _, err := GrossDieStudy(nil); err == nil {
		t.Fatal("accepted empty die list")
	}
}

func TestWaferCostStudyShape(t *testing.T) {
	rows, fig, err := WaferCostStudy(0.18, []float64{0, 6, 12, 24, 48}, []float64{1000, 100000})
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	// Within a volume, cost falls with age; across volumes, bigger is
	// cheaper at fixed age.
	byVol := map[float64][]WaferCostRow{}
	for _, r := range rows {
		byVol[r.Wafers] = append(byVol[r.Wafers], r)
	}
	for v, rs := range byVol {
		for i := 1; i < len(rs); i++ {
			if rs[i].CostCM2 >= rs[i-1].CostCM2 {
				t.Fatalf("volume %v: cost not falling with age", v)
			}
		}
	}
	small, big := byVol[1000], byVol[100000]
	for i := range small {
		if big[i].CostCM2 >= small[i].CostCM2 {
			t.Fatalf("high volume not cheaper at month %v", small[i].Months)
		}
	}
	if _, _, err := WaferCostStudy(0.18, nil, []float64{1}); err == nil {
		t.Fatal("accepted empty months")
	}
}

func TestMaskAmortizationShape(t *testing.T) {
	rows, fig, err := MaskAmortization([]float64{0.25, 0.13}, 100, 1e5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	// Advanced node costs more per cm² at every volume.
	var at025, at013 []MaskRow
	for _, r := range rows {
		if r.LambdaUM == 0.25 {
			at025 = append(at025, r)
		} else {
			at013 = append(at013, r)
		}
	}
	for i := range at025 {
		if at013[i].PerCM2At300 <= at025[i].PerCM2At300 {
			t.Fatalf("0.13 µm mask charge not above 0.25 µm at %v wafers", at025[i].Wafers)
		}
		if i > 0 && at025[i].PerCM2At300 >= at025[i-1].PerCM2At300 {
			t.Fatal("amortized charge not falling with volume")
		}
	}
	// At 100 wafers on 0.13 µm the mask charge alone should rival the
	// paper's 8 $/cm² manufacturing cost.
	if at013[0].PerCM2At300 < 8 {
		t.Fatalf("low-volume 0.13 µm mask charge = %v $/cm², want ≥ 8", at013[0].PerCM2At300)
	}
	if _, _, err := MaskAmortization(nil, 1, 10, 4); err == nil {
		t.Fatal("accepted empty nodes")
	}
}

func TestLayoutDensityStudyShape(t *testing.T) {
	rows, tbl, err := LayoutDensityStudy(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d/%d, want 4", len(rows), len(tbl.Rows))
	}
	// Sorted ascending by construction; first is SRAM near 30, last is
	// the sparse ASIC above 100.
	if rows[0].Style != "sram" || rows[0].Sd < 25 || rows[0].Sd > 40 {
		t.Fatalf("densest style = %+v, want sram ≈30", rows[0])
	}
	if rows[len(rows)-1].Style != "asic-sparse" || rows[len(rows)-1].Sd < 100 {
		t.Fatalf("sparsest style = %+v, want asic-sparse > 100", rows[len(rows)-1])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Sd < rows[i-1].Sd {
			t.Fatal("rows not sorted by density")
		}
	}
}

func TestErrorsPropagate(t *testing.T) {
	_, _, err := Figure4(Figure4Case{Wafers: 0, Yield: 0.5}, 10)
	if err == nil {
		t.Fatal("accepted zero-wafer case")
	}
	var zero error
	if errors.Is(err, zero) {
		// Nothing specific required; the call must simply fail loudly.
		_ = zero
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
