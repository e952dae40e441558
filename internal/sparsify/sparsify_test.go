package sparsify

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/effres"
	"cirstag/internal/graph"
	"cirstag/internal/obs"
	"cirstag/internal/solver"
)

func randomConnectedGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i), 0.1+rng.Float64())
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, 0.1+rng.Float64())
		}
	}
	return g
}

func TestMaxWeightSpanningTreeIsSpanning(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	g := randomConnectedGraph(rng, 50, 100)
	tree := MaxWeightSpanningTree(g)
	if len(tree) != 49 {
		t.Fatalf("tree has %d edges, want 49", len(tree))
	}
	edges := g.Edges()
	h := graph.New(50)
	for _, id := range tree {
		h.AddEdge(edges[id].U, edges[id].V, edges[id].W)
	}
	if !h.IsConnected() {
		t.Fatal("spanning tree not connected")
	}
}

func TestMaxWeightSpanningTreeMaximizesWeight(t *testing.T) {
	// Triangle with weights 1, 2, 3: max spanning tree takes edges 2 and 3.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(0, 2, 3)
	tree := MaxWeightSpanningTree(g)
	edges := g.Edges()
	var w float64
	for _, id := range tree {
		w += edges[id].W
	}
	if w != 5 {
		t.Fatalf("tree weight %v, want 5", w)
	}
}

func TestShortestPathTreeCoversForest(t *testing.T) {
	// Disconnected graph: SPT from one side must still span both components.
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(3, 5, 1)
	tree := ShortestPathTree(g, 0)
	if len(tree) != 4 {
		t.Fatalf("forest has %d edges, want 4", len(tree))
	}
}

func TestTreePathsAgainstEffres(t *testing.T) {
	// On the tree itself, tree-path resistance equals effective resistance.
	rng := rand.New(rand.NewSource(81))
	g := randomConnectedGraph(rng, 30, 0) // tree already
	tree := MaxWeightSpanningTree(g)
	tp := NewTreePaths(g, tree)
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-12})
	for trial := 0; trial < 20; trial++ {
		u, v := rng.Intn(30), rng.Intn(30)
		want := effres.Exact(s, u, v)
		got := tp.PathResistance(u, v)
		if math.Abs(got-want) > 1e-7 {
			t.Fatalf("tree path resistance (%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

func TestTreePathsDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	tree := MaxWeightSpanningTree(g)
	tp := NewTreePaths(g, tree)
	if tp.PathResistance(0, 2) != -1 {
		t.Fatal("cross-component path should be -1")
	}
	if tp.PathResistance(0, 1) != 1 {
		t.Fatal("tree edge resistance wrong")
	}
	if tp.PathResistance(2, 2) != 0 {
		t.Fatal("self path should be 0")
	}
}

func TestTreePathUpperBoundsEffectiveResistance(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g := randomConnectedGraph(rng, 25, 40)
	tree := LowStretchTree(g, rng)
	tp := NewTreePaths(g, tree)
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-11})
	for _, e := range g.Edges() {
		exact := effres.Exact(s, e.U, e.V)
		bound := tp.PathResistance(e.U, e.V)
		if bound < exact-1e-7 {
			t.Fatalf("tree path resistance %v below exact Reff %v", bound, exact)
		}
	}
}

func TestLowStretchTreeNotWorseThanMaxWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := randomConnectedGraph(rng, 40, 120)
	lst := LowStretchTree(g, rng)
	mwt := MaxWeightSpanningTree(g)
	if TotalStretch(g, lst) > TotalStretch(g, mwt)+1e-9 {
		t.Fatal("LowStretchTree worse than max-weight tree")
	}
}

func TestSparsifyKeepsConnectivityAndBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := randomConnectedGraph(rng, 60, 400)
	target := 100
	res := Sparsify(g, rng, Options{TargetEdges: target})
	if !res.Graph.IsConnected() {
		t.Fatal("sparsifier disconnected the graph")
	}
	if res.Graph.M() > target {
		t.Fatalf("sparsifier kept %d edges, budget %d", res.Graph.M(), target)
	}
	if res.Graph.M() < 59 {
		t.Fatal("sparsifier lost the spanning tree")
	}
}

func TestSparsifyPrunesLowEtaFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	g := randomConnectedGraph(rng, 40, 200)
	res := Sparsify(g, rng, Options{TargetEdges: 60})
	kept := make(map[int]bool)
	for _, id := range res.KeptEdges {
		kept[id] = true
	}
	inTree := make(map[int]bool)
	for _, id := range res.TreeEdges {
		inTree[id] = true
	}
	// Every pruned off-tree edge must have η <= every kept off-tree edge's η.
	minKept := math.Inf(1)
	for id := range kept {
		if !inTree[id] && res.Eta[id] < minKept {
			minKept = res.Eta[id]
		}
	}
	for id := range res.Eta {
		if !kept[id] && res.Eta[id] > minKept+1e-12 {
			t.Fatalf("pruned edge with η=%v while kept edge has η=%v", res.Eta[id], minKept)
		}
	}
}

func TestSparsifyPreservesQuadForms(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	g := randomConnectedGraph(rng, 80, 600)
	// Keep half the edges: quadratic forms should stay within a moderate
	// factor (this is a smoke bound, not the tight (1±ε) guarantee).
	res := Sparsify(g, rng, Options{TargetEdges: g.M() / 2})
	d := quadFormDistortion(g, res.Graph, 20, rng)
	if d > 1.0 {
		t.Fatalf("quadratic form distortion %v too large", d)
	}
}

// η upper-bounds each edge's true spectral distortion: tree edges carry η
// = 1 and off-tree edges w·(tree-path resistance), both at least w·Reff.
func TestSparsifyWithExactResistances(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	g := randomConnectedGraph(rng, 30, 120)
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-10})
	res := Sparsify(g, rng, Options{TargetEdges: 45})
	if !res.Graph.IsConnected() {
		t.Fatal("disconnected")
	}
	for id, e := range g.Edges() {
		if want := e.W * effres.Exact(s, e.U, e.V); res.Eta[id] < want-1e-9 {
			t.Fatalf("eta[%d] = %v, below w·Reff = %v", id, res.Eta[id], want)
		}
	}
	for _, id := range res.TreeEdges {
		if math.Abs(res.Eta[id]-1) > 1e-12 {
			t.Fatalf("tree edge %d has eta %v, want 1", id, res.Eta[id])
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := newUnionFind(5)
	if !u.union(0, 1) || !u.union(1, 2) {
		t.Fatal("union failed")
	}
	if u.union(0, 2) {
		t.Fatal("union of same set should return false")
	}
	if u.find(0) != u.find(2) || u.find(3) == u.find(0) {
		t.Fatal("find wrong")
	}
}

// Above the node threshold Sparsify must rank by sketched resistances: the
// counter advances, the spanning forest survives, the budget holds, and a
// fixed seed gives a deterministic edge set. Below the threshold the output
// is byte-identical to the tree-resistance path.
func TestSparsifySketchResistancePath(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	rng := rand.New(rand.NewSource(66))
	n := 200
	g := randomConnectedGraph(rng, n, 500)
	base := Options{TargetEdges: 2 * n}

	// Threshold above n: SketchAboveNodes set but inactive — identical output.
	plain := Sparsify(g, rand.New(rand.NewSource(5)), base)
	gated := base
	gated.SketchAboveNodes = n + 1
	gated.SketchEps = 0.5
	same := Sparsify(g, rand.New(rand.NewSource(5)), gated)
	if len(plain.KeptEdges) != len(same.KeptEdges) {
		t.Fatalf("inactive sketch option changed the result: %d vs %d edges", len(plain.KeptEdges), len(same.KeptEdges))
	}
	for i := range plain.KeptEdges {
		if plain.KeptEdges[i] != same.KeptEdges[i] {
			t.Fatalf("inactive sketch option changed kept edge %d", i)
		}
	}

	// Threshold at n: sketch path active.
	active := base
	active.SketchAboveNodes = n
	active.SketchEps = 0.5
	before := sketchResistanceUses.Value()
	res := Sparsify(g, rand.New(rand.NewSource(5)), active)
	if sketchResistanceUses.Value() != before+1 {
		t.Fatal("sketch-resistance counter did not advance")
	}
	if res.Graph.M() > 2*n+2 {
		t.Fatalf("budget blown: %d edges kept", res.Graph.M())
	}
	if _, nc := res.Graph.ConnectedComponents(); nc != 1 {
		t.Fatalf("sparsifier disconnected the graph into %d components", nc)
	}
	// Deterministic per seed.
	res2 := Sparsify(g, rand.New(rand.NewSource(5)), active)
	if len(res.KeptEdges) != len(res2.KeptEdges) {
		t.Fatal("sketch path not deterministic")
	}
	for i := range res.KeptEdges {
		if res.KeptEdges[i] != res2.KeptEdges[i] {
			t.Fatalf("sketch path not deterministic at kept edge %d", i)
		}
	}
}

// quadFormDistortion estimates the spectral similarity of g and its
// sparsifier h by comparing Laplacian quadratic forms on random probe
// vectors: it returns the maximum over probes of
// |xᵀL_H x − xᵀL_G x| / xᵀL_G x. Small values mean H ≈ G spectrally
// (Lemma 1 of the paper).
func quadFormDistortion(g, h *graph.Graph, probes int, rng *rand.Rand) float64 {
	lg := g.Laplacian()
	lh := h.Laplacian()
	n := g.N()
	var worst float64
	for p := 0; p < probes; p++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		qg := lg.QuadForm(x)
		qh := lh.QuadForm(x)
		if qg <= 0 {
			continue
		}
		d := (qh - qg) / qg
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
