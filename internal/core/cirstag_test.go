package core

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
)

// syntheticInput builds a random geometric-ish graph whose "GNN output" is a
// copy of the spectral geometry except that nodes in the distorted set are
// scattered far away — a controlled stand-in for a model that is unstable
// exactly on those nodes.
func syntheticInput(rng *rand.Rand, n int, distorted map[int]bool) Input {
	// Ring + random chords: connected, locally clustered.
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
		g.AddEdge(i, (i+2)%n, 0.5)
	}
	for k := 0; k < n/2; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, 0.3)
		}
	}
	// Output embedding: smooth coordinates on the ring, except distorted
	// nodes get a large random offset (the "unstable" mapping).
	y := mat.NewDense(n, 3)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		y.Set(i, 0, math.Cos(theta))
		y.Set(i, 1, math.Sin(theta))
		y.Set(i, 2, 0)
		if distorted[i] {
			y.Set(i, 0, y.At(i, 0)+rng.NormFloat64()*8)
			y.Set(i, 1, y.At(i, 1)+rng.NormFloat64()*8)
			y.Set(i, 2, rng.NormFloat64()*8)
		}
	}
	return Input{Graph: g, Output: y}
}

func TestRunBasicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	in := syntheticInput(rng, 80, nil)
	res, err := Run(in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeScores) != 80 {
		t.Fatal("node scores length wrong")
	}
	if res.InputManifold.N() != 80 || res.OutputManifold.N() != 80 {
		t.Fatal("manifold sizes wrong")
	}
	if len(res.Eigenvalues) == 0 {
		t.Fatal("no eigenvalues")
	}
	for i := 1; i < len(res.Eigenvalues); i++ {
		if res.Eigenvalues[i] > res.Eigenvalues[i-1]+1e-9 {
			t.Fatal("eigenvalues not descending")
		}
	}
	for _, s := range res.NodeScores {
		if s < 0 || math.IsNaN(s) {
			t.Fatalf("invalid node score %v", s)
		}
	}
	if res.Embedding == nil {
		t.Fatal("embedding should be recorded")
	}
}

func TestRunFlagsDistortedNodes(t *testing.T) {
	// The core promise of CirSTAG: nodes whose mapping is distorted get
	// higher stability scores than smoothly mapped nodes.
	rng := rand.New(rand.NewSource(111))
	n := 120
	distorted := map[int]bool{}
	for len(distorted) < 12 {
		distorted[rng.Intn(n)] = true
	}
	in := syntheticInput(rng, n, distorted)
	res, err := Run(in, Options{Seed: 2, ScoreDims: 16})
	if err != nil {
		t.Fatal(err)
	}
	rank := Rank(res.NodeScores, nil)
	top := rank.TopPercent(25)
	hits := 0
	for _, p := range top {
		if distorted[p] {
			hits++
		}
	}
	// Most distorted nodes should appear in the top quartile. (A few of the
	// random offsets are small, so those nodes are genuinely less distorted
	// and may legitimately rank lower.)
	if hits < 9 {
		t.Fatalf("only %d/12 distorted nodes in top-25%% (%d slots)", hits, len(top))
	}
	// And on average the distorted group must score far above the rest.
	var distMean, cleanMean float64
	var nd, ncl int
	for p, s := range res.NodeScores {
		if distorted[p] {
			distMean += s
			nd++
		} else {
			cleanMean += s
			ncl++
		}
	}
	distMean /= float64(nd)
	cleanMean /= float64(ncl)
	if distMean < 5*cleanMean {
		t.Fatalf("distorted mean %v not well above clean mean %v", distMean, cleanMean)
	}
}

func TestRunIdentityMappingIsUniformlyStable(t *testing.T) {
	// When the output manifold equals the input manifold the scores should be
	// low and fairly uniform: max/mean bounded.
	rng := rand.New(rand.NewSource(112))
	in := syntheticInput(rng, 100, nil)
	res, err := Run(in, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mean := mat.Mean(res.NodeScores)
	maxS := mat.NormInf(res.NodeScores)
	if mean == 0 {
		t.Fatal("degenerate zero scores")
	}
	if maxS/mean > 50 {
		t.Fatalf("identity-like mapping produced extreme outliers: max/mean = %v", maxS/mean)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	in := syntheticInput(rng, 60, map[int]bool{3: true, 7: true})
	r1, err1 := Run(in, Options{Seed: 42})
	r2, err2 := Run(in, Options{Seed: 42})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if mat.MaxAbsDiff(r1.NodeScores, r2.NodeScores) != 0 {
		t.Fatal("same seed must give identical scores")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Input{}, Options{}); err == nil {
		t.Fatal("nil input should error")
	}
	g := graph.New(5)
	if _, err := Run(Input{Graph: g, Output: mat.NewDense(4, 2)}, Options{}); err == nil {
		t.Fatal("row mismatch should error")
	}
	g2 := graph.New(2)
	if _, err := Run(Input{Graph: g2, Output: mat.NewDense(2, 2)}, Options{}); err == nil {
		t.Fatal("too-small graph should error")
	}
}

func TestRunSkipDimReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	in := syntheticInput(rng, 70, map[int]bool{1: true, 5: true})
	res, err := Run(in, Options{Seed: 4, SkipDimReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding != nil {
		t.Fatal("ablation should not compute an embedding")
	}
	// Input manifold is the raw graph.
	if res.InputManifold.M() != in.Graph.M() {
		t.Fatalf("ablation should keep the raw graph: %d vs %d edges", res.InputManifold.M(), in.Graph.M())
	}
}

func TestEnsureConnected(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1, 2)
	g.AddEdge(2, 3, 2)
	g.AddEdge(4, 5, 2)
	h := ensureConnected(g)
	if !h.IsConnected() {
		t.Fatal("ensureConnected failed")
	}
	// Bridges are weak relative to the existing edges.
	for _, e := range h.Edges() {
		if !g.HasEdge(e.U, e.V) && e.W >= 0.1 {
			t.Fatalf("bridge weight %v too strong", e.W)
		}
	}
	// Connected graph returned unchanged (same underlying object).
	c := graph.New(2)
	c.AddEdge(0, 1, 1)
	if ensureConnected(c) != c {
		t.Fatal("connected graph should pass through")
	}
}

func TestRankOrderingAndSelection(t *testing.T) {
	scores := mat.Vec{0.5, 2.0, 0.1, 2.0, 1.0}
	r := Rank(scores, nil)
	// Descending with id tiebreak: 1, 3 (both 2.0), 4, 0, 2.
	want := []int{1, 3, 4, 0, 2}
	for i, p := range r.Order {
		if p != want[i] {
			t.Fatalf("rank order %v, want %v", r.Order, want)
		}
	}
	top := r.TopPercent(40)
	if len(top) != 2 || top[0] != 1 || top[1] != 3 {
		t.Fatalf("TopPercent(40) = %v", top)
	}
	bottom := r.BottomPercent(40)
	if len(bottom) != 2 || bottom[0] != 0 || bottom[1] != 2 {
		t.Fatalf("BottomPercent(40) = %v", bottom)
	}
	// At least one node even for tiny percentages.
	if len(r.TopPercent(0.0001)) != 1 {
		t.Fatal("TopPercent should return at least one node")
	}
}

func TestRankExcludes(t *testing.T) {
	scores := mat.Vec{3, 2, 1}
	r := Rank(scores, map[int]bool{0: true})
	if len(r.Order) != 2 || r.Order[0] != 1 {
		t.Fatalf("exclusion failed: %v", r.Order)
	}
}

func TestDMDCalculator(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	distorted := map[int]bool{10: true, 11: true}
	in := syntheticInput(rng, 60, distorted)
	res, err := Run(in, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDMDCalculatorOpts(res.InputManifold, res.OutputManifold, DMDOptions{})
	if d.DMD(4, 4) != 0 {
		t.Fatal("DMD(p,p) must be 0")
	}
	v := d.DMD(0, 30)
	if v <= 0 || math.IsNaN(v) {
		t.Fatalf("DMD = %v", v)
	}
	// Symmetry.
	if math.Abs(d.DMD(0, 30)-d.DMD(30, 0)) > 1e-9 {
		t.Fatal("DMD not symmetric")
	}
	if d.InputDistance(0, 30) <= 0 || d.OutputDistance(0, 30) <= 0 {
		t.Fatal("distances must be positive for distinct nodes")
	}
}

func TestNodeScoreMatchesEdgeAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	in := syntheticInput(rng, 50, nil)
	res, err := Run(in, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute node scores from edge scores and compare.
	n := in.Graph.N()
	sum := make(mat.Vec, n)
	cnt := make([]int, n)
	for _, es := range res.EdgeScores {
		sum[es.U] += es.Score
		sum[es.V] += es.Score
		cnt[es.U]++
		cnt[es.V]++
	}
	for p := 0; p < n; p++ {
		want := 0.0
		if cnt[p] > 0 {
			want = sum[p] / float64(cnt[p])
		}
		if math.Abs(res.NodeScores[p]-want) > 1e-12 {
			t.Fatalf("node %d score %v != edge average %v", p, res.NodeScores[p], want)
		}
	}
}

func TestRunWithFeatureAugmentation(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	in := syntheticInput(rng, 60, map[int]bool{3: true})
	// Attach a feature matrix; FeatureAlpha > 0 must change the input
	// manifold (and generally the scores) without breaking anything.
	feats := mat.NewDense(60, 2)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	in.Features = feats
	plain, err := Run(in, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := Run(in, Options{Seed: 9, FeatureAlpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if aug.Embedding.Cols != plain.Embedding.Cols+2 {
		t.Fatalf("augmented embedding has %d cols, plain %d", aug.Embedding.Cols, plain.Embedding.Cols)
	}
	for _, s := range aug.NodeScores {
		if s < 0 || math.IsNaN(s) {
			t.Fatal("invalid score under feature augmentation")
		}
	}
}

func TestRunScoreDimsClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(118))
	in := syntheticInput(rng, 20, nil)
	res, err := Run(in, Options{Seed: 10, ScoreDims: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eigenvalues) >= 20 {
		t.Fatalf("ScoreDims not clamped: %d eigenvalues", len(res.Eigenvalues))
	}
}
