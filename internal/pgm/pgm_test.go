package pgm

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/knn"
	"cirstag/internal/mat"
)

func clusteredPoints(rng *rand.Rand, perCluster int, centers [][]float64, spread float64) *mat.Dense {
	d := len(centers[0])
	pts := mat.NewDense(perCluster*len(centers), d)
	for c, ctr := range centers {
		for i := 0; i < perCluster; i++ {
			for j := 0; j < d; j++ {
				pts.Set(c*perCluster+i, j, ctr[j]+rng.NormFloat64()*spread)
			}
		}
	}
	return pts
}

func TestBuildProducesConnectedSparseManifold(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	pts := mat.NewDense(200, 4)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	g := Build(pts, rng, Options{K: 8, AvgDegree: 6})
	if g.N() != 200 {
		t.Fatal("node count wrong")
	}
	if !g.IsConnected() {
		t.Fatal("manifold disconnected")
	}
	if g.M() > 6*200/2 {
		t.Fatalf("edge budget exceeded: %d", g.M())
	}
}

// A budget at or above the kNN edge count skips sparsification and keeps
// the dense kNN graph.
func TestBuildSkipSparsifyKeepsDenseGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pts := mat.NewDense(100, 3)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	dense := Build(pts, rng, Options{K: 10, AvgDegree: 100})
	sparse := Build(pts, rng, Options{K: 10, AvgDegree: 4})
	if want := len(knn.BuildGraph(pts, 10).Edges); dense.M() != want {
		t.Fatalf("unsparsified build kept %d edges, want the kNN graph's %d", dense.M(), want)
	}
	if dense.M() <= sparse.M() {
		t.Fatalf("dense (%d edges) should exceed sparse (%d)", dense.M(), sparse.M())
	}
}

func TestBuildKeepsClusterStructure(t *testing.T) {
	// Two tight, well-separated clusters: the manifold should have far more
	// intra-cluster than inter-cluster edges.
	rng := rand.New(rand.NewSource(92))
	pts := clusteredPoints(rng, 50, [][]float64{{0, 0}, {50, 0}}, 0.5)
	g := Build(pts, rng, Options{K: 6, AvgDegree: 6})
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if (e.U < 50) == (e.V < 50) {
			intra++
		} else {
			inter++
		}
	}
	if intra < 10*inter {
		t.Fatalf("cluster structure lost: intra=%d inter=%d", intra, inter)
	}
}

func TestObjectiveIncreasesWithGoodTopology(t *testing.T) {
	// The SGL objective should prefer a graph aligned with the data (edges
	// between nearby points) over one connecting random far-apart points.
	rng := rand.New(rand.NewSource(93))
	pts := clusteredPoints(rng, 20, [][]float64{{0, 0}, {30, 0}}, 0.4)
	good := Build(pts, rng, Options{K: 5, AvgDegree: 5})
	// Bad graph: same number of edges, random endpoints with same weights.
	bad := graph.New(40)
	goodEdges := good.Edges()
	for _, e := range goodEdges {
		for {
			u, v := rng.Intn(40), rng.Intn(40)
			if u != v && !bad.HasEdge(u, v) {
				bad.AddEdge(u, v, e.W)
				break
			}
		}
	}
	sigma2 := 1.0
	fGood := objective(good, pts, sigma2)
	fBad := objective(bad, pts, sigma2)
	if fGood <= fBad {
		t.Fatalf("objective should prefer data-aligned topology: good=%v bad=%v", fGood, fBad)
	}
}

func TestObjectiveSparsifiedClose(t *testing.T) {
	// η-pruning should degrade the SGL objective only mildly compared to a
	// random pruning of equal size.
	rng := rand.New(rand.NewSource(94))
	pts := mat.NewDense(80, 3)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	dense := Build(pts, rng, Options{K: 12, AvgDegree: 100}) // unsparsified
	smart := Build(pts, rng, Options{K: 12, AvgDegree: 4})
	// Random pruning to the same edge count (keeping connectivity unchecked;
	// sample until connected to keep logdet finite on 1⊥... simply retry).
	var randomPruned *graph.Graph
	for try := 0; try < 50; try++ {
		es := dense.Edges()
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		h := graph.New(dense.N())
		for _, e := range es[:smart.M()] {
			h.AddEdge(e.U, e.V, e.W)
		}
		if h.IsConnected() {
			randomPruned = h
			break
		}
	}
	if randomPruned == nil {
		t.Skip("could not sample a connected random pruning")
	}
	sigma2 := 1.0
	fSmart := objective(smart, pts, sigma2)
	fRandom := objective(randomPruned, pts, sigma2)
	if fSmart < fRandom {
		t.Fatalf("η-pruning (%v) should beat random pruning (%v)", fSmart, fRandom)
	}
}

func TestDataDistance2(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 0}, {3, 4}})
	if d := DataDistance2(x, 0, 1); math.Abs(d-25) > 1e-12 {
		t.Fatalf("DataDistance2 = %v, want 25", d)
	}
	if DataDistance2(x, 1, 1) != 0 {
		t.Fatal("self distance should be 0")
	}
}

func TestObjectivePanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	objective(graph.New(2), mat.NewDense(2, 1), 0)
}

// TestPatchKNNChainedDegreeBounded: a node dragged across the embedding by a
// long chain of patches must shed its stale neighbourhoods along the way.
// Before pruning, every patch added the node's k new neighbours while keeping
// all previous ones, so its degree grew without bound over a sequence.
func TestPatchKNNChainedDegreeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	n, k := 300, 8
	pts := mat.NewDense(n, 3)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	g := Build(pts, rng, Options{K: k, AvgDegree: 6})
	mover := 42
	startDeg := g.Degree(mover)
	for step := 0; step < 25; step++ {
		// Teleport the mover into a fresh region each step: the worst case
		// for neighbourhood staleness.
		for j := 0; j < pts.Cols; j++ {
			pts.Set(mover, j, 10*math.Cos(float64(step))+rng.NormFloat64())
		}
		g = PatchKNN(g, pts, []int{mover}, Options{K: k, AvgDegree: 6})
		if d := g.Degree(mover); d > 3*k {
			t.Fatalf("step %d: mover degree %d blew past 3k=%d (started at %d) — stale edges not pruned", step, d, 3*k, startDeg)
		}
	}
	if d := g.Degree(mover); d < 1 {
		t.Fatalf("mover disconnected after chained patches (degree %d)", d)
	}
}

// TestPatchKNNPrunesStaleEdges: an edge whose changed endpoint moved far
// beyond its kNN radius must disappear from the patched manifold, while the
// unchanged-unchanged edges keep their exact weights.
func TestPatchKNNPrunesStaleEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	n, k := 120, 6
	pts := mat.NewDense(n, 2)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	g := Build(pts, rng, Options{K: k, AvgDegree: 5})
	c := 17
	oldNbrs := append([]int(nil), g.SortedNeighbors(c)...)
	if len(oldNbrs) == 0 {
		t.Fatal("node 17 has no edges in the base manifold")
	}
	// Move the node far outside the point cloud.
	pts.Set(c, 0, 1e3)
	pts.Set(c, 1, 1e3)
	patched := PatchKNN(g, pts, []int{c}, Options{K: k, AvgDegree: 5})
	for _, nb := range oldNbrs {
		if patched.HasEdge(c, nb) {
			t.Fatalf("stale edge %d-%d survived a move far beyond the kNN radius", c, nb)
		}
	}
	if d := patched.Degree(c); d != k {
		t.Fatalf("moved node should hold exactly its %d new nearest neighbours, has %d", k, d)
	}
	// Unchanged-unchanged edges keep their sparsified weights bit-exactly.
	for _, e := range g.Edges() {
		if e.U == c || e.V == c {
			continue
		}
		if !patched.HasEdge(e.U, e.V) {
			t.Fatalf("unchanged edge %d-%d dropped", e.U, e.V)
		}
	}
}
