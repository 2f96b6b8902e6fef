package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 10}, {999, 0.99, 9}, {1100, 0.99, 11}, {20000, 0.999, 20}, {100, 0.9, 10}, {100, 0.5, 50},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// ramp builds the samples 1, 2, ..., n milliseconds, in reverse order.
func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1)
	}
	return v
}

func TestSummarizeTailLadder(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantQ   float64
		wantP99 bool
	}{
		{20000, 0.999, true}, // 20 beyond p99.9
		{5000, 0.99, true},   // 5 beyond p99.9, 50 beyond p99
		{1000, 0.99, true},   // exactly 10 beyond p99
		{999, 0.95, false},   // 9 beyond p99
		{100, 0.9, false},
		{50, 0, false}, // no ladder quantile has 10 beyond
	} {
		s := summarize(ramp(c.n), math.Inf(1))
		if s.tailQ != c.wantQ || s.p99Set != c.wantP99 {
			t.Errorf("n=%d: tail q %v p99 set %v, want %v %v", c.n, s.tailQ, s.p99Set, c.wantQ, c.wantP99)
		}
		if want := float64((c.n + 1) / 2); s.p50 != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, s.p50, want)
		}
		if c.wantQ > 0 {
			if want := math.Ceil(c.wantQ * float64(c.n)); s.tail != want {
				t.Errorf("n=%d: p%v = %v, want %v", c.n, c.wantQ*100, s.tail, want)
			}
		}
	}
}

func TestSummarizeCountsFailuresAsMissingTheLimit(t *testing.T) {
	const ceil = 5000.0
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 1
	}
	// Ten failures sit exactly beyond p99: p99 is still a real latency.
	for i := 0; i < 10; i++ {
		lat[i] = math.Inf(1)
	}
	if s := summarize(lat, ceil); s.p99 != 1 || s.p50 != 1 {
		t.Fatalf("10 failures in 1000: p50 %v p99 %v, want 1 1", s.p50, s.p99)
	}
	// An eleventh failure lands on p99, which then reads as the ceiling.
	lat[10] = math.Inf(1)
	if s := summarize(lat, ceil); s.p99 != ceil {
		t.Fatalf("11 failures in 1000: p99 %v, want ceiling %v", s.p99, ceil)
	}
	// A failed majority drags the median to the ceiling too.
	for i := range lat[:600] {
		lat[i] = math.Inf(1)
	}
	if s := summarize(lat, ceil); s.p50 != ceil {
		t.Fatalf("600 failures in 1000: p50 %v, want ceiling %v", s.p50, ceil)
	}
}

func TestLowestP99(t *testing.T) {
	lat := make([]float64, 3*minLatencySamples)
	for i := range lat {
		lat[i] = 2
	}
	// A stall fills the tail of the middle group only; a busy stretch
	// slows every request of the last group.
	for i := minLatencySamples; i < minLatencySamples+100; i++ {
		lat[i] = 50
	}
	for i := 2 * minLatencySamples; i < len(lat); i++ {
		lat[i] = 3
	}
	p99, groups, err := lowestP99(lat, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 || groups[1] != 50 || groups[2] != 3 || p99 != 2 {
		t.Fatalf("p99 %v over groups %v, want 2 over [2 50 3]", p99, groups)
	}
	if _, _, err := lowestP99(lat[:minLatencySamples-1], math.Inf(1)); err == nil {
		t.Fatal("took a p99 over fewer than minLatencySamples samples")
	}
}

func TestHostGaugeLaps(t *testing.T) {
	// Each part is scaled by the mean of the readings on either side of
	// it, and a reading ends one part and starts the next.
	readings := []float64{1.0, 1.2, 1.6, 1.0}
	g := &hostGauge{read: func() float64 { r := readings[0]; readings = readings[1:]; return r }}
	g.start()
	for i, mean := range []float64{1.1, 1.4, 1.3} {
		want := math.Pow(mean, workExponent)
		if got := g.lap(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("lap %d = %v, want %v", i, got, want)
		}
	}
}

func TestAtReference(t *testing.T) {
	// A part run at half the reference speed took twice as long and
	// counted half the responses: scaled, it reads as the others do.
	secs := []float64{1.0, 2.0, 1.1, 0.9}
	slow := []float64{1, 2, 1, 1}
	if got := timeAtReference(secs, slow); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("timeAtReference = %v, want 1.0", got)
	}
	windows := [][]float64{{100, 110}, {50, 45}, {90, 100}, {105, 95}}
	if got := rateAtReference(windows, slow); math.Abs(got-100) > 1e-12 {
		t.Fatalf("rateAtReference = %v, want 100", got)
	}
}

const scrapeBefore = `# HELP front_retries_total Retries.
# TYPE front_retries_total counter
front_retries_total 3
nanocostd_requests_total{route="/v1/cost",code="200"} 10
nanocostd_span_seconds_sum{stage="memo.fill"} 0.5
nanocostd_span_seconds_count{stage="memo.fill"} 5
`

// scrapeAfter adds a family absent before (the 429 series and the memo
// cache), a label value with escapes, and histogram growth.
const scrapeAfter = `# HELP front_retries_total Retries.
# TYPE front_retries_total counter
front_retries_total 7
nanocostd_requests_total{route="/v1/cost",code="200"} 25
nanocostd_requests_total{route="/v1/cost",code="429"} 2
nanocostd_span_seconds_sum{stage="memo.fill"} 1.1
nanocostd_span_seconds_count{stage="memo.fill"} 8
nanocostd_memo_cache_hits_total{cache="serve.figures"} 9
nanocostd_memo_cache_hits_total{cache="odd \"quoted\", {braced}"} 4
`

func TestExpositionDelta(t *testing.T) {
	before, err := parseExposition(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	for _, c := range []struct {
		name string
		kv   []string
		want float64
	}{
		{"front_retries_total", nil, 4},
		{"nanocostd_requests_total", []string{"code", "200"}, 15},
		{"nanocostd_requests_total", []string{"code", "429"}, 2}, // absent at the start
		{"nanocostd_requests_total", nil, 17},
		{"nanocostd_memo_cache_hits_total", []string{"cache", "serve.figures"}, 9},
		{"nanocostd_memo_cache_hits_total", []string{"cache", `odd "quoted", {braced}`}, 4},
		{"nanocostd_span_seconds_count", []string{"stage", "memo.fill"}, 3},
	} {
		if got := d.sum(c.name, c.kv...); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("delta %s%v = %v, want %v", c.name, c.kv, got, c.want)
		}
	}
	// (1.1-0.5)/(8-5) s = 200 ms per fill.
	mean, count := d.histMeanMS("nanocostd_span_seconds", "stage", "memo.fill")
	if math.Abs(mean-200) > 1e-9 || count != 3 {
		t.Errorf("memo.fill delta mean %v ms over %v, want 200 over 3", mean, count)
	}
	if m, n := d.histMeanMS("nanocostd_pool_chunk_wait_seconds"); m != 0 || n != 0 {
		t.Errorf("absent histogram: mean %v count %v, want 0 0", m, n)
	}
	both := merge(d, d)
	if got := both.sum("nanocostd_requests_total", "code", "429"); got != 4 {
		t.Errorf("merged 429s = %v, want 4", got)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"metric", `m{a="x} 1`, "m notanumber"} {
		if _, err := parseExposition(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		// Overlapping children cover [10, 50); the last is clipped to the
		// parent's end, covering [90, 100).
		{ID: 2, Parent: 1, Name: "child", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "child", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, Name: "late", StartNS: 90, EndNS: 120},
		{ID: 5, Parent: 3, Name: "leaf", StartNS: 25, EndNS: 35},
	}
	got := map[string]selfStat{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	want := map[string]struct {
		count        int
		self, wallNS float64
	}{
		"root":  {1, 50, 100},
		"child": {2, 20 + 20, 50}, // the second child loses [25, 35) to its leaf
		"late":  {1, 30, 30},
		"leaf":  {1, 10, 10},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.count || math.Abs(g.SelfMS-w.self/1e6) > 1e-12 || math.Abs(g.WallMS-w.wallNS/1e6) > 1e-12 {
			t.Errorf("%s: %+v, want count %d self %v ns wall %v ns", name, g, w.count, w.self, w.wallNS)
		}
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder(false)
	if id := r.newID(); id != 0 {
		t.Fatalf("disabled recorder reserved id %d", id)
	}
	r.add(0, 0, "x", "req", r.t0, r.t0)
	if len(r.spans) != 0 {
		t.Fatalf("disabled recorder kept %d spans", len(r.spans))
	}
}

func poolBodies(p *pool) [][]byte {
	var out [][]byte
	for _, r := range p.reqs {
		out = append(out, append([]byte(r.method+" "+r.path+"\n"), r.body...))
	}
	return out
}

func TestPoolsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := lightPool(7), lightPool(7), lightPool(8)
	ab, bb, cb := poolBodies(a), poolBodies(b), poolBodies(c)
	if len(ab) != len(bb) {
		t.Fatalf("seed 7 gave %d then %d requests", len(ab), len(bb))
	}
	same := 0
	for i := range ab {
		if !bytes.Equal(ab[i], bb[i]) {
			t.Fatalf("request %d differs between two draws of seed 7", i)
		}
		if i < len(cb) && bytes.Equal(ab[i], cb[i]) {
			same++
		}
	}
	if same == len(ab) {
		t.Error("seeds 7 and 8 gave identical requests")
	}
	sa, sb := a.sequence(7, 500), b.sequence(7, 500)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("traffic sequence differs at %d", i)
		}
	}
	for i, js := range jobsList(3) {
		if again := jobsList(3)[i]; !bytes.Equal(js.body, again.body) {
			t.Errorf("job %s body differs between two builds", js.name)
		}
	}
}

func TestSpreadKeepsTheLoadFixed(t *testing.T) {
	sum := func(seed int64) int {
		total := 0
		for _, n := range spread(rand.New(rand.NewSource(seed)), 128, 2, 8) {
			total += n
		}
		return total
	}
	if a, b := sum(1), sum(2); a != b {
		t.Errorf("total batch items differ by seed: %d vs %d", a, b)
	}
}

func TestGeneratedRequestsAreAccepted(t *testing.T) {
	ref := newReference()
	defer ref.srv.Close()
	if _, err := references(ref, warmup()); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		p := lightPool(seed)
		if _, err := references(ref, p.reqs); err != nil {
			t.Fatalf("serve-light seed %d: %v", seed, err)
		}
	}
}

func TestJobListsHavePins(t *testing.T) {
	var lists []jobSpec
	for seed := int64(0); seed < 4; seed++ {
		lists = append(lists, jobsList(seed)...)
	}
	for _, js := range lists {
		if pinnedResults[js.name] == "" {
			t.Errorf("%s has no pinned result hash", js.name)
		}
	}
}

func TestSpecPinsEveryRate(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if rate, err := spec.pinnedRate(w.Name); err != nil || rate <= 0 {
			t.Errorf("%s: rate %v, err %v", w.Name, rate, err)
		}
	}
	if _, err := spec.pinnedRate("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
