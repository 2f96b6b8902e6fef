package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/stats"
)

func TestDistValidate(t *testing.T) {
	if err := Fixed(3).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Uniform(1, 2).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Uniform(2, 1).Validate(); err == nil {
		t.Fatal("accepted inverted uniform")
	}
	if err := LogNormal(1, 1.3).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := LogNormal(0, 1.3).Validate(); err == nil {
		t.Fatal("accepted zero median")
	}
	if err := LogNormal(1, 0.9).Validate(); err == nil {
		t.Fatal("accepted sigma < 1")
	}
	if err := (Dist{}).Validate(); err == nil {
		t.Fatal("accepted zero-value Dist")
	}
}

func TestDistSampling(t *testing.T) {
	r := stats.NewRNG(3)
	if v := Fixed(7).Sample(r); v != 7 {
		t.Fatalf("Fixed sample = %v", v)
	}
	for i := 0; i < 1000; i++ {
		v := Uniform(2, 5).Sample(r)
		if v < 2 || v >= 5 {
			t.Fatalf("uniform sample %v outside [2,5)", v)
		}
	}
	// Log-normal median ≈ the declared median.
	var vals []float64
	ln := LogNormal(10, 1.5)
	for i := 0; i < 20000; i++ {
		v := ln.Sample(r)
		if v <= 0 {
			t.Fatalf("log-normal sample %v", v)
		}
		vals = append(vals, v)
	}
	s, err := stats.Summarize(vals)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Median-10) > 0.3 {
		t.Fatalf("log-normal median = %v, want ≈10", s.Median)
	}
}

func TestDistSamplePanicsUninitialized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample on zero Dist did not panic")
		}
	}()
	(Dist{}).Sample(stats.NewRNG(1))
}

func TestMonteCarloDegenerateMatchesPoint(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	point, err := s.TransistorCost()
	if err != nil {
		t.Fatal(err)
	}
	q, err := UncertainScenario{Base: s}.MonteCarlo(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{q.Mean, q.P5, q.P50, q.P95} {
		if math.Abs(v-point.Total) > 1e-15 {
			t.Fatalf("degenerate Monte Carlo %v != point %v", v, point.Total)
		}
	}
	if q.N != 200 {
		t.Fatalf("N = %d", q.N)
	}
}

func TestMonteCarloQuantileOrderingAndSpread(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	u := UncertainScenario{
		Base:  s,
		Yield: Uniform(0.3, 0.9),
		CmSq:  LogNormal(8, 1.4),
		Sd:    Uniform(150, 600),
	}
	q, err := u.MonteCarlo(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !(q.P5 < q.P50 && q.P50 < q.P95) {
		t.Fatalf("quantiles not ordered: %+v", q)
	}
	if q.P95/q.P5 < 1.5 {
		t.Fatalf("spread too tight for these inputs: %+v", q)
	}
	if q.Mean < q.P5 || q.Mean > q.P95 {
		t.Fatalf("mean %v outside central 90%%", q.Mean)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	u := UncertainScenario{Base: s, Yield: Uniform(0.3, 0.9)}
	a, err := u.MonteCarlo(500, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.MonteCarlo(500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same seed, different quantiles")
	}
}

func TestMonteCarloRedrawsInvalidSamples(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	// Half the s_d mass is below s_d0: those draws must be redrawn, not
	// crash or bias toward failure.
	u := UncertainScenario{Base: s, Sd: Uniform(50, 400)}
	q, err := u.MonteCarlo(500, 13)
	if err != nil {
		t.Fatal(err)
	}
	if q.P5 <= 0 {
		t.Fatalf("quantiles corrupted: %+v", q)
	}
}

func TestMonteCarloHopelessDomainErrors(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	u := UncertainScenario{Base: s, Sd: Uniform(10, 50)} // entirely below s_d0
	if _, err := u.MonteCarlo(10, 1); err == nil {
		t.Fatal("accepted distributions entirely outside the domain")
	}
}

func TestMonteCarloValidation(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	if _, err := (UncertainScenario{Base: s}).MonteCarlo(0, 1); err == nil {
		t.Fatal("accepted zero samples")
	}
	bad := UncertainScenario{Base: s, Yield: Uniform(2, 1)}
	if _, err := bad.MonteCarlo(10, 1); err == nil {
		t.Fatal("accepted invalid distribution")
	}
	badBase := figure4Scenario(0, 0.8)
	if _, err := (UncertainScenario{Base: badBase}).MonteCarlo(10, 1); err == nil {
		t.Fatal("accepted invalid base scenario")
	}
}

func TestTornadoOrderingAndDirections(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	bars, err := Tornado(s, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 6 {
		t.Fatalf("bars = %d, want 6", len(bars))
	}
	for i := 1; i < len(bars); i++ {
		if bars[i].Swing() > bars[i-1].Swing() {
			t.Fatal("bars not sorted by swing")
		}
	}
	byName := map[string]TornadoBar{}
	for _, b := range bars {
		byName[b.Name] = b
	}
	// Directions: more yield → cheaper; more λ → dearer; more wafers →
	// cheaper (design amortization); more cm_sq → dearer.
	if byName["yield"].HighCost >= byName["yield"].LowCost {
		t.Fatal("yield direction wrong")
	}
	if byName["lambda"].HighCost <= byName["lambda"].LowCost {
		t.Fatal("lambda direction wrong")
	}
	if byName["wafers"].HighCost >= byName["wafers"].LowCost {
		t.Fatal("wafers direction wrong")
	}
	if byName["cm_sq"].HighCost <= byName["cm_sq"].LowCost {
		t.Fatal("cm_sq direction wrong")
	}
	// λ commands the largest swing: cost is quadratic in it while every
	// other bar moves the cost at most linearly at 20% excursions.
	if bars[0].Name != "lambda" {
		t.Fatalf("largest swing = %q, want lambda", bars[0].Name)
	}
}

func TestTornadoValidation(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	if _, err := Tornado(s, 0); err == nil {
		t.Fatal("accepted zero excursion")
	}
	if _, err := Tornado(s, 1); err == nil {
		t.Fatal("accepted unit excursion")
	}
	bad := figure4Scenario(0, 0.4)
	if _, err := Tornado(bad, 0.2); err == nil {
		t.Fatal("accepted invalid scenario")
	}
}

func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	u := UncertainScenario{
		Base:  s,
		Yield: Uniform(0.3, 0.9),
		CmSq:  LogNormal(8, 1.4),
		Sd:    Uniform(150, 600),
	}
	const n, seed = 10000, 42
	ref, err := u.MonteCarloRun(n, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := u.MonteCarloRun(n, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Redraws != ref.Redraws {
			t.Fatalf("workers=%d: redraws = %d, serial = %d", workers, got.Redraws, ref.Redraws)
		}
		if len(got.Samples) != len(ref.Samples) {
			t.Fatalf("workers=%d: %d samples, serial %d", workers, len(got.Samples), len(ref.Samples))
		}
		for i := range ref.Samples {
			// Bit-identical, not approximately equal.
			if got.Samples[i] != ref.Samples[i] {
				t.Fatalf("workers=%d: sample %d = %x, serial %x", workers, i, got.Samples[i], ref.Samples[i])
			}
		}
	}
}

func TestMonteCarloReportsRedraws(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	// Half the s_d mass sits below s_d0, so a large share of joint draws
	// must be rejected — and that truncation must be visible to callers.
	u := UncertainScenario{Base: s, Sd: Uniform(50, 400)}
	q, err := u.MonteCarlo(2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if q.Redraws == 0 {
		t.Fatal("rejections occurred but Redraws = 0")
	}
	// Acceptance ≈ the fraction of [50,400] above s_d0 (~105): ~84%. The
	// reported redraw share must land in a loose band around 1−p.
	share := float64(q.Redraws) / float64(q.N+q.Redraws)
	if share < 0.05 || share > 0.40 {
		t.Fatalf("redraw share = %v, want ≈0.16", share)
	}
	// A fully in-domain study reports zero redraws.
	clean := UncertainScenario{Base: s, Yield: Uniform(0.5, 0.9)}
	q2, err := clean.MonteCarlo(500, 13)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Redraws != 0 {
		t.Fatalf("in-domain study reports %d redraws", q2.Redraws)
	}
}

func TestMonteCarloSamplesSpanChunkBoundary(t *testing.T) {
	// n above mcChunkSize exercises the multi-chunk path even serially;
	// the sample count must still be exact.
	s := figure4Scenario(5000, 0.8)
	u := UncertainScenario{Base: s, Yield: Uniform(0.3, 0.9)}
	n := mcChunkSize + 17
	samples, err := u.MonteCarloSamples(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != n {
		t.Fatalf("samples = %d, want %d", len(samples), n)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatal("samples not sorted")
		}
	}
}

func TestMCEvaluatorChunkMatchesDrawOnce(t *testing.T) {
	// The chunk evaluator must consume the stream and fold its tally in
	// exactly the scalar reference's order: same accept/reject decisions,
	// same accepted totals, same final stream state. The s_d range
	// straddles s_d0 so the redraw path is exercised too.
	s := figure4Scenario(5000, 0.8)
	u := UncertainScenario{
		Base:  s,
		Yield: Uniform(0.3, 0.9),
		CmSq:  LogNormal(8, 1.4),
		Sd:    Uniform(50, 400),
	}
	e, err := u.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	const n = 700
	a, b := stats.NewRNG(99), stats.NewRNG(99)
	got, err := e.Chunk(a, n)
	if err != nil {
		t.Fatal(err)
	}
	want := MCChunkTally{Min: math.Inf(1), Max: math.Inf(-1)}
	for i := 0; i < n; i++ {
		for {
			total, accepted := u.drawOnce(b, &e.dists)
			if accepted {
				want.Accepted++
				want.Sum += total
				want.Sum2 += total * total
				want.Min = math.Min(want.Min, total)
				want.Max = math.Max(want.Max, total)
				break
			}
			want.Redraws++
		}
	}
	if got.Accepted != n || got.Accepted != want.Accepted || got.Redraws != want.Redraws {
		t.Fatalf("counts: got %+v, want %+v", got, want)
	}
	for _, pair := range [][2]float64{
		{got.Sum, want.Sum}, {got.Sum2, want.Sum2}, {got.Min, want.Min}, {got.Max, want.Max},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("tally diverged: got %+v, want %+v", got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("chunk evaluator left the stream in a different state than the scalar path")
	}
}

func TestMCEvaluatorHopelessDomainErrors(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	u := UncertainScenario{Base: s, Sd: Uniform(10, 50)} // entirely below s_d0
	e, err := u.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Chunk(stats.NewRNG(1), 10); err == nil {
		t.Fatal("chunk accepted distributions entirely outside the domain")
	}
}

// TestMonteCarloRunPinnedSamples pins MonteCarloRun's exact output for one
// fixed scenario: the sha256 of every sorted sample's Float64bits
// (little-endian) and the redraw count. The s_d range straddles s_d0, so
// the redraw path is pinned too. Any change to the accept/reject loop,
// the chunk streams or the draw order moves these values.
func TestMonteCarloRunPinnedSamples(t *testing.T) {
	u := UncertainScenario{
		Base: Scenario{
			Process:    Process{LambdaUM: 0.18, CostPerCM2: 8, Yield: 0.6, WaferAreaCM2: 300},
			Design:     Design{Transistors: 10e6, Sd: 300},
			DesignCost: DefaultDesignCostModel(),
			Wafers:     5000,
		},
		Yield: Uniform(0.3, 0.9),
		CmSq:  LogNormal(8, 1.4),
		Sd:    Uniform(50, 400),
	}
	const (
		wantHash    = "3ce486c1d38e6cbd590f72b7ff7c20e6513822a38e0f2cf9ac67055e839453bd"
		wantRedraws = 2051
	)
	for _, workers := range []int{1, 4} {
		run, err := u.MonteCarloRun(3*mcChunkSize+41, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, v := range run.Samples {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != wantHash || run.Redraws != wantRedraws {
			t.Fatalf("workers=%d: samples sha256 %s with %d redraws, want %s with %d",
				workers, got, run.Redraws, wantHash, wantRedraws)
		}
	}
}
