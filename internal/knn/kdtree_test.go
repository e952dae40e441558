package knn

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/circuit"
	"cirstag/internal/embed"
	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
)

func randPoints(rng *rand.Rand, n, d int) *mat.Dense {
	pts := mat.NewDense(n, d)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	return pts
}

func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, dims := range []int{1, 2, 3, 8} {
		pts := randPoints(rng, 200, dims)
		tree := NewKDTree(pts)
		for trial := 0; trial < 25; trial++ {
			i := rng.Intn(200)
			k := 1 + rng.Intn(10)
			got := tree.Query(pts.Row(i), k, i)
			want := BruteForce(pts, i, k)
			if len(got) != len(want) {
				t.Fatalf("dims=%d: got %d neighbors, want %d", dims, len(got), len(want))
			}
			for j := range got {
				// Distances must match exactly (ties may swap ids).
				if math.Abs(got[j].Dist2-want[j].Dist2) > 1e-12 {
					t.Fatalf("dims=%d neighbor %d: dist %v vs %v", dims, j, got[j].Dist2, want[j].Dist2)
				}
			}
		}
	}
}

func TestQuerySortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := randPoints(rng, 100, 4)
	tree := NewKDTree(pts)
	res := tree.Query(pts.Row(0), 10, 0)
	for i := 1; i < len(res); i++ {
		if res[i].Dist2 < res[i-1].Dist2 {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestQuerySkipExcludesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := randPoints(rng, 50, 3)
	tree := NewKDTree(pts)
	for _, nb := range tree.Query(pts.Row(7), 5, 7) {
		if nb.ID == 7 {
			t.Fatal("skip index returned")
		}
	}
	// Without skip, the query point itself is the nearest (distance 0).
	res := tree.Query(pts.Row(7), 1, -1)
	if res[0].ID != 7 || res[0].Dist2 != 0 {
		t.Fatal("self should be nearest without skip")
	}
}

func TestQueryDuplicatePoints(t *testing.T) {
	// All points identical: distances are all zero, no crash.
	pts := mat.NewDense(10, 2)
	tree := NewKDTree(pts)
	res := tree.Query(pts.Row(0), 3, 0)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for _, nb := range res {
		if nb.Dist2 != 0 {
			t.Fatal("duplicate points should have distance 0")
		}
	}
}

func TestQueryKLargerThanN(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := randPoints(rng, 5, 2)
	tree := NewKDTree(pts)
	res := tree.Query(pts.Row(0), 100, 0)
	if len(res) != 4 {
		t.Fatalf("expected 4 neighbors, got %d", len(res))
	}
}

func TestBuildGraphBasicInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := randPoints(rng, 120, 5)
	k := 6
	g := BuildGraph(pts, k)
	if g.N != 120 {
		t.Fatal("node count wrong")
	}
	// Every node has degree >= k (its own k neighbors, possibly more from
	// reverse edges).
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		if e.U >= e.V {
			t.Fatal("edge not canonical U < V")
		}
		deg[e.U]++
		deg[e.V]++
		if e.W <= 0 {
			t.Fatal("non-positive weight")
		}
		// w = 1/d² convention, d² recomputed from the points.
		var d2 float64
		for c, x := range pts.Row(e.U) {
			d := x - pts.At(e.V, c)
			d2 += d * d
		}
		want := 1 / math.Max(d2, 1e-12)
		if math.Abs(e.W-want) > 1e-9*want {
			t.Fatal("weight does not follow 1/d²")
		}
	}
	for i, d := range deg {
		if d < k {
			t.Fatalf("node %d degree %d < k=%d", i, d, k)
		}
	}
	// No duplicate edges.
	seen := map[[2]int]bool{}
	for _, e := range g.Edges {
		key := [2]int{e.U, e.V}
		if seen[key] {
			t.Fatal("duplicate edge")
		}
		seen[key] = true
	}
}

func TestBuildGraphDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	pts := randPoints(rng, 60, 3)
	g1 := BuildGraph(pts, 4)
	g2 := BuildGraph(pts, 4)
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatal("edge counts differ")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatal("graphs differ between runs")
		}
	}
}

func TestBuildGraphConnectsClusters(t *testing.T) {
	// Two well-separated clusters of 20 points each, k=25 forces bridges so
	// the graph must be connected; with k=3 it must split into 2 components.
	rng := rand.New(rand.NewSource(76))
	pts := mat.NewDense(40, 2)
	for i := 0; i < 20; i++ {
		pts.Set(i, 0, rng.NormFloat64()*0.1)
		pts.Set(i, 1, rng.NormFloat64()*0.1)
		pts.Set(20+i, 0, 100+rng.NormFloat64()*0.1)
		pts.Set(20+i, 1, rng.NormFloat64()*0.1)
	}
	toGraph := func(kg *Graph) *graph.Graph {
		g := graph.New(kg.N)
		for _, e := range kg.Edges {
			g.AddEdge(e.U, e.V, e.W)
		}
		return g
	}
	gSmall := toGraph(BuildGraph(pts, 3))
	if _, c := gSmall.ConnectedComponents(); c != 2 {
		t.Fatalf("k=3 should give 2 components, got %d", c)
	}
	gBig := toGraph(BuildGraph(pts, 25))
	if !gBig.IsConnected() {
		t.Fatal("k=25 should connect the clusters")
	}
}

func TestBuildGraphKClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	pts := randPoints(rng, 5, 2)
	g := BuildGraph(pts, 50) // clamps to n-1=4: complete graph
	if len(g.Edges) != 10 {
		t.Fatalf("expected complete graph with 10 edges, got %d", len(g.Edges))
	}
}

// latticePoints places n points on a small integer lattice with 0/1 columns
// and every fourth row a duplicate of the row before it, so nearly every
// distance ties and the tie order alone decides which point is the kth
// neighbor.
func latticePoints(rng *rand.Rand, n int) *mat.Dense {
	pts := mat.NewDense(n, 5)
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			copy(pts.Row(i), pts.Row(i-1))
			continue
		}
		pts.Set(i, 0, float64(rng.Intn(4)))
		pts.Set(i, 1, float64(rng.Intn(3)))
		pts.Set(i, 2, float64(rng.Intn(2)))
		pts.Set(i, 3, float64(rng.Intn(2)))
		pts.Set(i, 4, float64(rng.Intn(2)))
	}
	return pts
}

// TestQueryTieOrderMatchesBruteForce: with distance ties everywhere, Query
// must still return exactly the k smallest (d², id) pairs, the ids and d²
// bits BruteForce returns, and BuildGraph must equal the graph merged from
// BruteForce's lists.
func TestQueryTieOrderMatchesBruteForce(t *testing.T) {
	pts := latticePoints(rand.New(rand.NewSource(79)), 240)
	tree := NewKDTree(pts)
	for _, k := range []int{1, 5, 10} {
		oracle := make([][]Neighbor, pts.Rows)
		for i := range oracle {
			oracle[i] = BruteForce(pts, i, k)
			got := tree.Query(pts.Row(i), k, i)
			if len(got) != len(oracle[i]) {
				t.Fatalf("k=%d point %d: %d neighbors, want %d", k, i, len(got), len(oracle[i]))
			}
			for j, nb := range got {
				want := oracle[i][j]
				if nb.ID != want.ID || math.Float64bits(nb.Dist2) != math.Float64bits(want.Dist2) {
					t.Fatalf("k=%d point %d neighbor %d: got %+v, want %+v", k, i, j, nb, want)
				}
			}
		}
		got, want := BuildGraph(pts, k), mergeNeighbors(oracle, k)
		if len(got.Edges) != len(want.Edges) {
			t.Fatalf("k=%d: BuildGraph has %d edges, oracle graph %d", k, len(got.Edges), len(want.Edges))
		}
		for i, e := range got.Edges {
			w := want.Edges[i]
			if e.U != w.U || e.V != w.V || math.Float64bits(e.W) != math.Float64bits(w.W) {
				t.Fatalf("k=%d edge %d: got %+v, oracle %+v", k, i, e, w)
			}
		}
	}
}

// TestInputManifoldFanout guards the k-d tree's pruning on the pipeline's
// own input embedding: sasc at seed 1, the 16 spectral columns plus the 21
// standardized features at α = 1, as core.Run builds it. The mean number of
// points a query examines is a count, so it repeats exactly: 1,413 of the
// 3,037 points with widest-axis splits, 3,031 with splits on depth % dims.
func TestInputManifoldFanout(t *testing.T) {
	const maxMeanFanout = 1600
	nl, err := circuit.BenchmarkByName("sasc", 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := embed.Spectral(nl.PinGraph(), parallel.NewRNG(1, 0), embed.Options{Dims: 16})
	emb := embed.FeatureAugmented(sp.U, nl.Features(), 1)

	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	BuildGraph(emb, 10)
	h := obs.Snapshot().Histograms["knn.query_fanout"]
	if h.Count != int64(emb.Rows) {
		t.Fatalf("%d queries recorded, want %d", h.Count, emb.Rows)
	}
	if h.Mean > maxMeanFanout {
		t.Fatalf("a query examines %.1f of %d points on average, want at most %d", h.Mean, emb.Rows, maxMeanFanout)
	}
}
