package effres

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/obs"
	"cirstag/internal/solver"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func cycleGraph(n int) *graph.Graph {
	g := pathGraph(n)
	g.AddEdge(n-1, 0, 1)
	return g
}

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

func TestExactPath(t *testing.T) {
	g := pathGraph(8)
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-12})
	for k := 1; k < 8; k++ {
		r := Exact(s, 0, k)
		if math.Abs(r-float64(k)) > 1e-8 {
			t.Fatalf("path Reff(0,%d) = %v, want %d", k, r, k)
		}
	}
	if Exact(s, 3, 3) != 0 {
		t.Fatal("Reff(u,u) must be 0")
	}
}

func TestExactCycleParallelResistors(t *testing.T) {
	// Cycle of n unit resistors: Reff(0,k) = k(n-k)/n.
	n := 9
	g := cycleGraph(n)
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-12})
	for k := 1; k < n; k++ {
		want := float64(k) * float64(n-k) / float64(n)
		if got := Exact(s, 0, k); math.Abs(got-want) > 1e-8 {
			t.Fatalf("cycle Reff(0,%d) = %v, want %v", k, got, want)
		}
	}
}

func TestExactWeightedParallel(t *testing.T) {
	// Two nodes joined by weights 2 and 3 in parallel (via a middle node for
	// the second path: resistance 1/3 + 1/3 = 2/3, in parallel with 1/2).
	g := graph.New(3)
	g.AddEdge(0, 1, 2) // resistance 1/2
	g.AddEdge(0, 2, 3) // 1/3
	g.AddEdge(2, 1, 3) // 1/3
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-12})
	want := 1 / (2 + 1/(1.0/3+1.0/3))
	if got := Exact(s, 0, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("parallel Reff = %v, want %v", got, want)
	}
}

func TestTreeResistanceEqualsPathSum(t *testing.T) {
	// On a tree, Reff(u,v) = sum of 1/w along the unique path.
	rng := rand.New(rand.NewSource(60))
	n := 30
	g := graph.New(n)
	parent := make([]int, n)
	wts := make([]float64, n)
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
		wts[i] = 0.5 + rng.Float64()
		g.AddEdge(i, parent[i], wts[i])
	}
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-12})
	// Path resistance from node u to root 0.
	pathRes := func(u int) float64 {
		var r float64
		for u != 0 {
			r += 1 / wts[u]
			u = parent[u]
		}
		return r
	}
	// depth map to find LCA cheaply via repeated parent stepping.
	depth := make([]int, n)
	for i := 1; i < n; i++ {
		depth[i] = depth[parent[i]] + 1
	}
	lca := func(u, v int) int {
		for depth[u] > depth[v] {
			u = parent[u]
		}
		for depth[v] > depth[u] {
			v = parent[v]
		}
		for u != v {
			u, v = parent[u], parent[v]
		}
		return u
	}
	for trial := 0; trial < 20; trial++ {
		u, v := rng.Intn(n), rng.Intn(n)
		a := lca(u, v)
		want := pathRes(u) + pathRes(v) - 2*pathRes(a)
		got := Exact(s, u, v)
		if math.Abs(got-want) > 1e-7 {
			t.Fatalf("tree Reff(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

func TestRayleighMonotonicity(t *testing.T) {
	// Adding an edge can only decrease effective resistances.
	rng := rand.New(rand.NewSource(61))
	g := randomConnectedGraph(rng, 25, 30)
	s1 := solver.NewLaplacian(g, solver.Options{Tol: 1e-11})
	before := make([]float64, 10)
	pairs := make([][2]int, 10)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(25), rng.Intn(25)}
		before[i] = Exact(s1, pairs[i][0], pairs[i][1])
	}
	g2 := g.Clone()
	// Add a few strong edges.
	for k := 0; k < 5; k++ {
		u, v := rng.Intn(25), rng.Intn(25)
		if u != v {
			g2.AddEdge(u, v, 5)
		}
	}
	s2 := solver.NewLaplacian(g2, solver.Options{Tol: 1e-11})
	for i, p := range pairs {
		after := Exact(s2, p[0], p[1])
		if after > before[i]+1e-7 {
			t.Fatalf("Rayleigh monotonicity violated: %v -> %v", before[i], after)
		}
	}
}

func TestResistanceTriangleInequality(t *testing.T) {
	// Effective resistance is a metric.
	rng := rand.New(rand.NewSource(62))
	g := randomConnectedGraph(rng, 20, 25)
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-11})
	for trial := 0; trial < 30; trial++ {
		a, b, c := rng.Intn(20), rng.Intn(20), rng.Intn(20)
		rab := Exact(s, a, b)
		rbc := Exact(s, b, c)
		rac := Exact(s, a, c)
		if rac > rab+rbc+1e-7 {
			t.Fatalf("triangle inequality violated: R(%d,%d)=%v > %v+%v", a, c, rac, rab, rbc)
		}
	}
}

func TestSketchApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := randomConnectedGraph(rng, 60, 120)
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-10})
	sk := NewSketch(g, 400, rng, solver.Options{Tol: 1e-10})
	edges := g.Edges()
	var worst float64
	for _, e := range edges[:30] {
		exact := Exact(s, e.U, e.V)
		approx := sk.Resistance(e.U, e.V)
		rel := math.Abs(approx-exact) / exact
		if rel > worst {
			worst = rel
		}
	}
	// 400 projections → ε ≈ sqrt(24 ln n / q) ≈ 0.5 worst case; typical error
	// is much smaller. Use a generous bound to keep the test robust.
	if worst > 0.5 {
		t.Fatalf("sketch relative error %v too large", worst)
	}
}

func TestSketchLeverageSumIsNMinusOne(t *testing.T) {
	// Foster's theorem: Σ_e w_e·Reff_e = n − 1 for connected graphs.
	rng := rand.New(rand.NewSource(64))
	g := randomConnectedGraph(rng, 40, 80)
	s := solver.NewLaplacian(g, solver.Options{Tol: 1e-11})
	var sum float64
	for _, e := range g.Edges() {
		sum += e.W * Exact(s, e.U, e.V)
	}
	if math.Abs(sum-float64(g.N()-1)) > 1e-4 {
		t.Fatalf("Foster sum = %v, want %d", sum, g.N()-1)
	}
}

func TestSketchDeterministicWithSeed(t *testing.T) {
	g := pathGraph(12)
	sk1 := NewSketch(g, 16, rand.New(rand.NewSource(5)), solver.Options{})
	sk2 := NewSketch(g, 16, rand.New(rand.NewSource(5)), solver.Options{})
	if !sk1.Z.Equalish(sk2.Z, 0) {
		t.Fatal("sketch not deterministic for fixed seed")
	}
}

func TestEdgeResistancesMatchesPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	g := randomConnectedGraph(rng, 15, 20)
	sk := NewSketch(g, 32, rng, solver.Options{})
	rs := sk.EdgeResistances(g)
	for i, e := range g.Edges() {
		if rs[i] != sk.Resistance(e.U, e.V) {
			t.Fatal("EdgeResistances mismatch")
		}
	}
}

// Property test (paper §2 / Spielman–Srivastava): with q = SketchQ(n, eps)
// projection rows, every sampled pair's sketched resistance lies within
// (1±eps) of the exact value, on random connected graphs across several
// seeds. This is the accuracy contract the approximate-DMD path relies on.
func TestSketchWithinEpsilonOfExactAcrossSeeds(t *testing.T) {
	const eps = 0.5
	for _, seed := range []int64{11, 22, 33, 44} {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(60)
		g := randomConnectedGraph(rng, n, 2*n)
		q := SketchQ(n, eps)
		sk := NewSketch(g, q, rng, solver.Options{Tol: 1e-10})
		s := solver.NewLaplacian(g, solver.Options{Tol: 1e-10})
		for trial := 0; trial < 40; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			exact := Exact(s, u, v)
			approx := sk.Resistance(u, v)
			if exact <= 0 {
				t.Fatalf("seed %d: exact Reff(%d,%d) = %v on a connected graph", seed, u, v, exact)
			}
			if rel := math.Abs(approx-exact) / exact; rel > eps {
				t.Fatalf("seed %d n=%d q=%d: Reff(%d,%d) sketch %v vs exact %v (rel %.3f > eps %.2f)",
					seed, n, q, u, v, approx, exact, rel, eps)
			}
		}
	}
}

func TestSketchQMonotoneInEps(t *testing.T) {
	n := 10000
	qLoose := SketchQ(n, 0.9)
	qTight := SketchQ(n, 0.2)
	if qLoose >= qTight {
		t.Fatalf("SketchQ not monotone: q(0.9)=%d q(0.2)=%d", qLoose, qTight)
	}
	if q := SketchQ(3, 0.1); q > 6 {
		t.Fatalf("SketchQ must clamp to 2n on tiny graphs, got %d", q)
	}
	if q := SketchQ(1<<20, 0.05); q != 1024 {
		t.Fatalf("SketchQ must cap at 1024, got %d", q)
	}
	// Out-of-range eps falls back to the historical default rather than
	// exploding or returning a degenerate width.
	if q := SketchQ(1000, -1); q != SketchQ(1000, 0.3) {
		t.Fatalf("SketchQ(-1) fallback mismatch: %d", q)
	}
}

// TestNewSketchLeavesNoRootSpan: a sketch build records its wall time in the
// effres.sketch.build_ms histogram and leaves tracing to its caller's span. A
// root span started here would never be freed by obs.ReleaseRoot, so every
// build would grow a long-lived process's span forest.
func TestNewSketchLeavesNoRootSpan(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	NewSketch(cycleGraph(32), 8, rand.New(rand.NewSource(1)), solver.Options{})
	rep := obs.Snapshot()
	if len(rep.Spans) != 0 {
		t.Fatalf("NewSketch left %d root span(s), first %q", len(rep.Spans), rep.Spans[0].Name)
	}
	if h := rep.Histograms["effres.sketch.build_ms"]; h.Count != 1 {
		t.Fatalf("effres.sketch.build_ms recorded %d builds, want 1", h.Count)
	}
}
