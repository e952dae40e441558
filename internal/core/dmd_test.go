package core

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/cache"
	"cirstag/internal/graph"
	"cirstag/internal/obs"
)

// TestDMDClampsExtremeDistortion reproduces the +Inf DMD bug: a near-zero
// input-manifold distance paired with a huge output distance used to return
// ±Inf from the ratio. The clamp must report exactly MaxDMD and count the
// event.
func TestDMDClampsExtremeDistortion(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()

	// Triangles with reciprocal extreme weights: Reff_X ≈ (2/3)·1e-8 and
	// Reff_Y ≈ (2/3)·1e8, so δ ≈ 1e16 > MaxDMD.
	gx, gy := graph.New(3), graph.New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		gx.AddEdge(e[0], e[1], 1e8)
		gy.AddEdge(e[0], e[1], 1e-8)
	}
	before := dmdClamped.Value()
	d := NewDMDCalculatorOpts(gx, gy, DMDOptions{})
	got := d.DMD(0, 1)
	if got != MaxDMD {
		t.Fatalf("DMD = %v, want clamp to MaxDMD = %v", got, MaxDMD)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("DMD returned non-finite %v", got)
	}
	if dmdClamped.Value() == before {
		t.Fatal("clamp counter did not advance")
	}
	if v := d.DMD(1, 1); v != 0 {
		t.Fatalf("DMD(p,p) = %v, want 0", v)
	}
}

// TestRunDuplicateEmbeddingRowsFinite is the end-to-end regression: coincident
// GNN output rows (zero-distance pairs on the output manifold) must not leak
// a non-finite score out of Run.
func TestRunDuplicateEmbeddingRowsFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := syntheticInput(rng, 80, map[int]bool{7: true})
	// Collapse a cluster of output rows onto row 0.
	for _, r := range []int{1, 2, 3, 4} {
		for c := 0; c < in.Output.Cols; c++ {
			in.Output.Set(r, c, in.Output.At(0, c))
		}
	}
	res, err := Run(in, Options{Seed: 12})
	if err != nil {
		t.Fatalf("duplicate embedding rows must not fail the run: %v", err)
	}
	assertResultFinite(t, res)
}

// randomManifoldPair builds two random connected graphs on the same node set
// — a stand-in for an (input, output) manifold pair.
func randomManifoldPair(rng *rand.Rand, n int) (*graph.Graph, *graph.Graph) {
	build := func() *graph.Graph {
		g := graph.New(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i, rng.Intn(i), 0.1+rng.Float64())
		}
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v, 0.1+rng.Float64())
			}
		}
		return g
	}
	return build(), build()
}

// The approximate engine must answer within the combined sketch error bound
// of the exact engine — each sketched resistance carries (1±ε), so the ratio
// carries roughly (1±2.5ε) — and must actually answer from the sketch.
func TestApproxDMDTracksExact(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	rng := rand.New(rand.NewSource(91))
	n := 90
	gx, gy := randomManifoldPair(rng, n)
	const eps = 0.5
	exact := NewDMDCalculatorOpts(gx, gy, DMDOptions{})
	approx := NewDMDCalculatorOpts(gx, gy, DMDOptions{Approx: true, Eps: eps, Seed: 7})
	if !approx.Approx() || exact.Approx() {
		t.Fatal("Approx() flags wrong")
	}
	hitsBefore := dmdSketchHits.Value()
	ratioBound := 2.5 * eps
	for trial := 0; trial < 50; trial++ {
		p, q := rng.Intn(n), rng.Intn(n)
		de, da := exact.DMD(p, q), approx.DMD(p, q)
		if math.IsNaN(da) || math.IsInf(da, 0) {
			t.Fatalf("approx DMD(%d,%d) non-finite: %v", p, q, da)
		}
		if p == q {
			if da != 0 {
				t.Fatalf("approx DMD(p,p) = %v", da)
			}
			continue
		}
		if rel := math.Abs(da-de) / de; rel > ratioBound {
			t.Fatalf("approx DMD(%d,%d) = %v vs exact %v (rel %.3f > %.3f)", p, q, da, de, rel, ratioBound)
		}
	}
	if dmdSketchHits.Value() == hitsBefore {
		t.Fatal("no query was answered from the sketch")
	}
}

// A pair whose input distance underflows the sketch floor must fall back to
// the exact engine (counted), reproducing the exact clamp semantics instead
// of dividing sketch noise.
func TestApproxDMDFallsBackBelowFloor(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	rng := rand.New(rand.NewSource(92))
	n := 40
	gx, gy := randomManifoldPair(rng, n)
	// Short node 0 and 1 together on the input manifold: Reff_X(0,1) ~ 1e-12,
	// far below the 1e-6×mean floor, while Reff_Y stays O(1).
	gx.AddEdge(0, 1, 1e12)
	exact := NewDMDCalculatorOpts(gx, gy, DMDOptions{})
	approx := NewDMDCalculatorOpts(gx, gy, DMDOptions{Approx: true, Eps: 0.5, Seed: 3})
	fallbacksBefore := dmdExactFallbacks.Value()
	de, da := exact.DMD(0, 1), approx.DMD(0, 1)
	if dmdExactFallbacks.Value() == fallbacksBefore {
		t.Fatal("near-zero input distance did not trigger the exact fallback")
	}
	if da != de {
		t.Fatalf("fallback answer %v differs from exact %v", da, de)
	}
}

// InputDistance/OutputDistance must route through the same sketch-or-exact
// dispatch as DMD: sketch answers for reliable pairs (bit-equal to the
// sketch), exact answers below the floor.
func TestDistanceQueriesUseSketchDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	n := 60
	gx, gy := randomManifoldPair(rng, n)
	gx.AddEdge(0, 1, 1e12) // degenerate pair on the input side
	approx := NewDMDCalculatorOpts(gx, gy, DMDOptions{Approx: true, Eps: 0.5, Seed: 5})
	exact := NewDMDCalculatorOpts(gx, gy, DMDOptions{})

	// Reliable pair: the answer IS the sketched resistance.
	if got, want := approx.InputDistance(10, 40), approx.skx.Resistance(10, 40); got != want {
		t.Fatalf("InputDistance = %v, want sketched %v", got, want)
	}
	if got, want := approx.OutputDistance(10, 40), approx.sky.Resistance(10, 40); got != want {
		t.Fatalf("OutputDistance = %v, want sketched %v", got, want)
	}
	// Degenerate pair: exact fallback, same answer as the exact engine.
	if got, want := approx.InputDistance(0, 1), exact.InputDistance(0, 1); got != want {
		t.Fatalf("degenerate InputDistance = %v, want exact %v", got, want)
	}
	// Self-distances stay exactly zero on both engines.
	if approx.InputDistance(4, 4) != 0 || approx.OutputDistance(4, 4) != 0 {
		t.Fatal("self-distance must be 0")
	}
}

// Sketch persistence: a warm calculator (second build against the same cache)
// must load Z from the store and answer byte-identically to the cold one.
func TestApproxDMDSketchCacheRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	n := 50
	gx, gy := randomManifoldPair(rng, n)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := DMDOptions{Approx: true, Eps: 0.4, Seed: 11, Cache: store}

	cold := NewDMDCalculatorOpts(gx, gy, opts)
	warm := NewDMDCalculatorOpts(gx, gy, opts)
	for i, zc := range cold.skx.Z.Data {
		if math.Float64bits(zc) != math.Float64bits(warm.skx.Z.Data[i]) {
			t.Fatalf("warm input sketch differs from cold at flat index %d", i)
		}
	}
	for i, zc := range cold.sky.Z.Data {
		if math.Float64bits(zc) != math.Float64bits(warm.sky.Z.Data[i]) {
			t.Fatalf("warm output sketch differs from cold at flat index %d", i)
		}
	}
	for trial := 0; trial < 30; trial++ {
		p, q := rng.Intn(n), rng.Intn(n)
		if math.Float64bits(cold.DMD(p, q)) != math.Float64bits(warm.DMD(p, q)) {
			t.Fatalf("warm DMD(%d,%d) not byte-identical to cold", p, q)
		}
	}
	// A different seed must key a different sketch, not collide in the cache.
	other := NewDMDCalculatorOpts(gx, gy, DMDOptions{Approx: true, Eps: 0.4, Seed: 12, Cache: store})
	same := true
	for i := range cold.skx.Z.Data {
		if cold.skx.Z.Data[i] != other.skx.Z.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sketches — cache key collision")
	}
}
