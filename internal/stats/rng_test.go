package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) out of range: %d", v)
		}
		seen[v]++
	}
	for k := 0; k < 6; k++ {
		if seen[k] < 9000 || seen[k] > 11000 {
			t.Fatalf("Intn(6) bucket %d count %d, want ~10000", k, seen[k])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.Norm(3, 2)
		sum += v
		ss += v * v
	}
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("normal mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("normal variance = %v, want ~4", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(9)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(2)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~0.5", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 25, 100} {
		r := NewRNG(13)
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.03*mean+0.05 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	r := NewRNG(1)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-1); got != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", got)
	}
}

func TestGammaMoments(t *testing.T) {
	for _, tc := range []struct{ shape, scale float64 }{{0.5, 2}, {2, 1}, {5, 0.5}} {
		r := NewRNG(17)
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			v := r.Gamma(tc.shape, tc.scale)
			if v < 0 {
				t.Fatalf("Gamma produced negative value %v", v)
			}
			sum += v
		}
		want := tc.shape * tc.scale
		if got := sum / n; math.Abs(got-want) > 0.05*want+0.01 {
			t.Fatalf("Gamma(%v,%v) sample mean = %v, want ~%v", tc.shape, tc.scale, got, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// Property: Range always lands inside [lo, hi) for lo < hi.
func TestRangeProperty(t *testing.T) {
	r := NewRNG(37)
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo <= 0 || hi-lo > 1e100 {
			return true
		}
		v := r.Range(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestJumpDeterministicAndDisjoint(t *testing.T) {
	a := NewRNG(101)
	b := NewRNG(101)
	a.Jump()
	b.Jump()
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Jump is not deterministic")
		}
	}
	// The jumped stream must differ from the un-jumped one.
	pre := NewRNG(101)
	post := NewRNG(101)
	post.Jump()
	same := 0
	for i := 0; i < 100; i++ {
		if pre.Uint64() == post.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("jumped stream tracks the original: %d/100 identical", same)
	}
}

func TestJumpSkipsAheadOfSequentialDraws(t *testing.T) {
	// A jump advances 2^128 steps; drawing a few thousand values from a
	// sibling must not reach the jumped stream's block.
	r := NewRNG(7)
	jumped := NewRNG(7)
	jumped.Jump()
	first := jumped.Uint64()
	for i := 0; i < 10000; i++ {
		if r.Uint64() == first {
			t.Fatal("sequential stream reached the jumped block suspiciously fast")
		}
	}
}

func TestSplitNLayout(t *testing.T) {
	r := NewRNG(55)
	streams := r.SplitN(4)
	if len(streams) != 4 {
		t.Fatalf("streams = %d", len(streams))
	}
	// Stream 0 is the pre-split state; stream i+1 is stream i jumped once.
	ref := NewRNG(55)
	for i, s := range streams {
		c := *ref // compare against an independent copy's draws
		if c.Uint64() != s.Uint64() {
			t.Fatalf("stream %d does not match %d jumps from the seed state", i, i)
		}
		ref.Jump()
	}
	// SplitN is reproducible and depends only on (seed, k).
	again := NewRNG(55).SplitN(4)
	for i := range streams {
		// streams[i] was advanced one draw above; re-derive fresh pairs.
		a, b := again[i], NewRNG(55).SplitN(4)[i]
		for j := 0; j < 20; j++ {
			if a.Uint64() != b.Uint64() {
				t.Fatalf("SplitN stream %d not reproducible", i)
			}
		}
	}
}

func TestSplitNPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SplitN(-1) did not panic")
		}
	}()
	NewRNG(1).SplitN(-1)
}

func TestSplitNZeroIsNoop(t *testing.T) {
	// k == 0 returns nil and must not advance the parent: a resumed
	// sharded run with no pending shards derives no streams and leaves
	// the walk exactly where it was.
	r := NewRNG(1)
	before := *r
	if got := r.SplitN(0); got != nil {
		t.Fatalf("SplitN(0) = %v, want nil", got)
	}
	if r.s != before.s {
		t.Fatal("SplitN(0) advanced the parent state")
	}
}

func TestSplitNShardCountEdges(t *testing.T) {
	// The sharding path leans on two structural properties at every shard
	// count, including the edges (1, 2, and a large prime that cannot
	// align with any chunk-size power of two): adjacent streams occupy
	// consecutive jump blocks, and the parent ends exactly k jumps past
	// its pre-call state so a later SplitN continues on disjoint blocks.
	for _, k := range []int{1, 2, 1009} {
		r := NewRNG(909)
		streams := r.SplitN(k)
		if len(streams) != k {
			t.Fatalf("k=%d: got %d streams", k, len(streams))
		}
		// Adjacency: stream i+1's state is stream i's state jumped once,
		// so the 2^128 blocks tile the cycle with no gap and no overlap.
		for i := 0; i+1 < k; i++ {
			c := *streams[i]
			c.Jump()
			if c.s != streams[i+1].s {
				t.Fatalf("k=%d: stream %d+1 is not stream %d jumped once", k, i, i)
			}
		}
		// Parent lands one jump past the last stream.
		c := *streams[k-1]
		c.Jump()
		if c.s != r.s {
			t.Fatalf("k=%d: parent is not %d jumps past the seed state", k, k)
		}
		// All k stream states are pairwise distinct (non-overlap at the
		// block level implies distinct block-start states).
		seen := make(map[[4]uint64]int, k)
		for i, s := range streams {
			if j, dup := seen[s.s]; dup {
				t.Fatalf("k=%d: streams %d and %d share a state", k, j, i)
			}
			seen[s.s] = i
		}
	}
}

// corr computes the Pearson correlation of two equal-length sequences.
func corr(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	return cov / math.Sqrt(va*vb)
}

func TestSplitStreamsStatisticallyIndependent(t *testing.T) {
	// The satellite guarantee behind the parallel Monte Carlo engine:
	// sub-streams derived from one seed are mutually uncorrelated. For
	// n = 20000 i.i.d. uniform pairs the sampling distribution of the
	// Pearson r has σ ≈ 1/√n ≈ 0.007, so |r| < 0.035 is a 5σ bound.
	const n = 20000
	const tol = 0.035
	derive := map[string]func() []*RNG{
		"SplitN": func() []*RNG { return NewRNG(2024).SplitN(4) },
		"StreamSeed": func() []*RNG {
			out := make([]*RNG, 4)
			for i := range out {
				out[i] = NewRNG(StreamSeed(2024, uint64(i)))
			}
			return out
		},
	}
	for name, mk := range derive {
		streams := mk()
		seqs := make([][]float64, len(streams))
		for i, s := range streams {
			seqs[i] = make([]float64, n)
			for j := range seqs[i] {
				seqs[i][j] = s.Float64()
			}
		}
		for i := 0; i < len(seqs); i++ {
			for j := i + 1; j < len(seqs); j++ {
				if r := corr(seqs[i], seqs[j]); math.Abs(r) > tol {
					t.Errorf("%s: streams %d,%d correlated: r = %v", name, i, j, r)
				}
			}
		}
	}
}

func TestStreamSeedKeying(t *testing.T) {
	// Distinct id paths give distinct seeds; same path reproduces.
	seen := map[uint64][2]uint64{}
	for w := uint64(0); w < 20; w++ {
		for y := uint64(0); y < 20; y++ {
			s := StreamSeed(9, w, y)
			if prev, dup := seen[s]; dup {
				t.Fatalf("StreamSeed collision: (%d,%d) and (%d,%d)", w, y, prev[0], prev[1])
			}
			seen[s] = [2]uint64{w, y}
			if StreamSeed(9, w, y) != s {
				t.Fatal("StreamSeed not reproducible")
			}
		}
	}
	// The empty path must still decorrelate from the raw seed.
	if StreamSeed(9) == 9 {
		t.Fatal("StreamSeed(seed) returned the seed unmixed")
	}
	// Path structure matters: (1,2) != (2,1).
	if StreamSeed(9, 1, 2) == StreamSeed(9, 2, 1) {
		t.Fatal("StreamSeed ignores id order")
	}
}

func TestSeededMatchesNewRNG(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		v := Seeded(seed)
		p := NewRNG(seed)
		for i := 0; i < 64; i++ {
			if a, b := v.Uint64(), p.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Seeded %d != NewRNG %d", seed, i, a, b)
			}
		}
	}
}

var seededSink int

func TestSeededZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		r := Seeded(7)
		seededSink += r.Poisson(3)
	})
	if allocs != 0 {
		t.Fatalf("value-typed Seeded stream allocates %v per run, want 0", allocs)
	}
}
