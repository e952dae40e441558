package knn

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cirstag/internal/mat"
	"cirstag/internal/parallel"
)

func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// TestBuildGraphMatchesBruteForceOracle cross-checks the full parallel
// BuildGraph pipeline (tree queries + sorted merge) against an exhaustive
// oracle: every returned edge must connect kNN partners, and every point's k
// nearest oracle neighbors must appear among its graph edges.
func TestBuildGraphMatchesBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 200, 4)
	k := 6
	g := BuildGraph(pts, k)

	adj := make([]map[int]bool, pts.Rows)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for _, e := range g.Edges {
		adj[e.U][e.V] = true
		adj[e.V][e.U] = true
	}
	for i := 0; i < pts.Rows; i++ {
		oracle := BruteForce(pts, i, k)
		for _, nb := range oracle {
			if !adj[i][nb.ID] {
				t.Fatalf("node %d: oracle neighbor %d (d2=%g) missing from graph", i, nb.ID, nb.Dist2)
			}
		}
	}
	// Conversely, every edge must be a kNN relation from at least one side.
	for _, e := range g.Edges {
		ok := false
		for _, nb := range BruteForce(pts, e.U, k) {
			if nb.ID == e.V {
				ok = true
			}
		}
		for _, nb := range BruteForce(pts, e.V, k) {
			if nb.ID == e.U {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("edge (%d,%d) is not a kNN relation from either endpoint", e.U, e.V)
		}
	}
}

// TestBuildGraphWorkerCountEquivalence requires the merged edge list to be
// byte-identical across worker counts.
func TestBuildGraphWorkerCountEquivalence(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 300, 5)

	parallel.SetWorkers(1)
	ref := BuildGraph(pts, 8)
	for _, workers := range []int{2, 8} {
		parallel.SetWorkers(workers)
		got := BuildGraph(pts, 8)
		if len(got.Edges) != len(ref.Edges) {
			t.Fatalf("workers=%d: %d edges, serial gave %d", workers, len(got.Edges), len(ref.Edges))
		}
		for i := range ref.Edges {
			a, b := got.Edges[i], ref.Edges[i]
			if a.U != b.U || a.V != b.V || math.Float64bits(a.W) != math.Float64bits(b.W) {
				t.Fatalf("workers=%d: edge %d = %+v, serial gave %+v", workers, i, a, b)
			}
		}
	}
}

// TestAllIdenticalPoints is the nthElement worst-case regression: with every
// coordinate equal, a quickselect without a duplicate guard degenerates (the
// partition makes no progress). The tree must build in reasonable time and
// queries must return the floored distances.
func TestAllIdenticalPoints(t *testing.T) {
	n := 512
	pts := mat.NewDense(n, 3)
	for i := 0; i < n; i++ {
		pts.Set(i, 0, 1.5)
		pts.Set(i, 1, -2.5)
		pts.Set(i, 2, 0.25)
	}
	tree := NewKDTree(pts)
	nbrs := tree.Query(pts.Row(0), 5, 0)
	if len(nbrs) != 5 {
		t.Fatalf("got %d neighbors, want 5", len(nbrs))
	}
	for _, nb := range nbrs {
		if nb.Dist2 != 0 {
			t.Fatalf("identical points should have d2=0, got %g", nb.Dist2)
		}
	}
	g := BuildGraph(pts, 4)
	for _, e := range g.Edges {
		if e.W <= 0 || math.IsInf(e.W, 0) || math.IsNaN(e.W) {
			t.Fatalf("edge weight not finite positive with coincident points: %+v", e)
		}
	}
}

func BenchmarkKNNBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 5000, 16)
	b.Run("serial", func(b *testing.B) {
		parallel.SetWorkers(1)
		defer parallel.SetWorkers(0)
		for i := 0; i < b.N; i++ {
			BuildGraph(pts, 10)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var serial, par float64
		parallel.SetWorkers(1)
		start := nowSeconds()
		BuildGraph(pts, 10)
		serial = nowSeconds() - start
		parallel.SetWorkers(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			BuildGraph(pts, 10)
		}
		b.StopTimer()
		start = nowSeconds()
		BuildGraph(pts, 10)
		par = nowSeconds() - start
		if par > 0 {
			b.ReportMetric(serial/par, "speedup")
		}
		b.ReportMetric(float64(parallel.Workers()), "workers")
	})
}
