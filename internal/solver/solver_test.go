package solver

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/sparse"
)

// spdCSR builds a strictly diagonally dominant symmetric matrix, hence SPD.
func spdCSR(rng *rand.Rand, n int) *sparse.CSR {
	var entries []sparse.Entry
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			entries = append(entries,
				sparse.Entry{Row: i, Col: j, Val: v},
				sparse.Entry{Row: j, Col: i, Val: v})
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Entry{Row: i, Col: i, Val: rowAbs[i] + 1 + rng.Float64()})
	}
	return sparse.NewCSR(n, n, entries)
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

func TestPCGSolvesSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a := spdCSR(rng, 80)
	xTrue := make(mat.Vec, 80)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	x, res, err := PCG(AsOp(a), NewJacobi(a), b, nil, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("PCG error: %v (res %v after %d iters)", err, res.Residual, res.Iterations)
	}
	if mat.MaxAbsDiff(x, xTrue) > 1e-6 {
		t.Fatalf("PCG solution error %v", mat.MaxAbsDiff(x, xTrue))
	}
}

func TestPCGZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := spdCSR(rng, 10)
	x, res, err := PCG(AsOp(a), IdentityPrec{}, make(mat.Vec, 10), nil, Options{})
	if err != nil || res.Iterations != 0 || mat.Norm2(x) != 0 {
		t.Fatal("zero rhs should return zero immediately")
	}
}

func TestPCGWithInitialGuess(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := spdCSR(rng, 30)
	xTrue := make(mat.Vec, 30)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	// Start at the exact solution: should converge in 0 iterations.
	_, res, err := PCG(AsOp(a), NewJacobi(a), b, xTrue, Options{Tol: 1e-8})
	if err != nil || res.Iterations != 0 {
		t.Fatalf("warm start not detected: %v iters, err %v", res.Iterations, err)
	}
}

func TestPCGJacobiBeatsIdentityOnIllConditioned(t *testing.T) {
	// Diagonal matrix with huge condition number: Jacobi solves it instantly,
	// identity-preconditioned CG needs many iterations.
	n := 50
	entries := make([]sparse.Entry, n)
	for i := 0; i < n; i++ {
		entries[i] = sparse.Entry{Row: i, Col: i, Val: math.Pow(10, float64(i%8))}
	}
	a := sparse.NewCSR(n, n, entries)
	b := make(mat.Vec, n)
	for i := range b {
		b[i] = 1
	}
	_, resJ, errJ := PCG(AsOp(a), NewJacobi(a), b, nil, Options{Tol: 1e-10, MaxIter: 30})
	if errJ != nil {
		t.Fatalf("Jacobi PCG failed on diagonal system: %v", errJ)
	}
	if resJ.Iterations > 3 {
		t.Fatalf("Jacobi should solve diagonal system in ~1 iter, took %d", resJ.Iterations)
	}
}

func TestLaplacianPseudoInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomConnectedGraph(rng, 60, 90)
	s := NewLaplacian(g, Options{Tol: 1e-10})
	l := g.Laplacian()
	// Pick b orthogonal to 1 so L x = b is consistent.
	b := make(mat.Vec, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	mean := mat.Mean(b)
	for i := range b {
		b[i] -= mean
	}
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	// Check L x == b.
	if mat.MaxAbsDiff(l.MulVec(x), b) > 1e-6 {
		t.Fatalf("L·L⁺b != b, err %v", mat.MaxAbsDiff(l.MulVec(x), b))
	}
	// Solution orthogonal to constant vector.
	if math.Abs(mat.Sum(x)) > 1e-8 {
		t.Fatal("solution not mean-free")
	}
}

func TestLaplacianKernelIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := randomConnectedGraph(rng, 20, 30)
	s := NewLaplacian(g, Options{Tol: 1e-10})
	b := make(mat.Vec, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, err1 := s.Solve(b)
	// Shift b by a constant: same solution (kernel component ignored).
	b2 := b.Clone()
	for i := range b2 {
		b2[i] += 7.5
	}
	x2, err2 := s.Solve(b2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if mat.MaxAbsDiff(x1, x2) > 1e-6 {
		t.Fatal("constant shift of rhs changed the pseudo-inverse solution")
	}
}

func TestLaplacianDisconnected(t *testing.T) {
	// Two components: solver must handle each independently.
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	s := NewLaplacian(g, Options{Tol: 1e-12})
	b := mat.Vec{1, 0, -1, 2, -1, -1}
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	l := g.Laplacian()
	if mat.MaxAbsDiff(l.MulVec(x), b) > 1e-8 {
		t.Fatal("disconnected solve failed")
	}
	// Mean-free on each component.
	if math.Abs(x[0]+x[1]+x[2]) > 1e-9 || math.Abs(x[3]+x[4]+x[5]) > 1e-9 {
		t.Fatal("solution not mean-free per component")
	}
}

func TestLaplacianFromCSRMatchesGraphSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := randomConnectedGraph(rng, 25, 40)
	s1 := NewLaplacian(g, Options{Tol: 1e-11})
	s2 := NewLaplacianFromCSR(g.Laplacian(), Options{Tol: 1e-11})
	b := make(mat.Vec, 25)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, err1 := s1.Solve(b)
	x2, err2 := s2.Solve(b)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if mat.MaxAbsDiff(x1, x2) > 1e-6 {
		t.Fatal("CSR-constructed solver disagrees with graph-constructed solver")
	}
}

func TestPCGPathGraphEffectiveResistanceOracle(t *testing.T) {
	// On a unit path graph, Reff(0, k) = k. Verify via the solver:
	// Reff = (e_0 - e_k)ᵀ L⁺ (e_0 - e_k).
	n := 10
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	s := NewLaplacian(g, Options{Tol: 1e-12})
	for k := 1; k < n; k++ {
		b := make(mat.Vec, n)
		b[0] = 1
		b[k] = -1
		x, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		reff := x[0] - x[k]
		if math.Abs(reff-float64(k)) > 1e-8 {
			t.Fatalf("path Reff(0,%d) = %v, want %d", k, reff, k)
		}
	}
}

func TestTreePrecSolvesTreeExactly(t *testing.T) {
	// On a tree Laplacian the tree preconditioner IS the inverse: PCG must
	// converge in one iteration.
	rng := rand.New(rand.NewSource(47))
	g := randomConnectedGraph(rng, 40, 0) // spanning tree only
	l := g.Laplacian()
	s := NewLaplacianFromCSR(l, Options{Tol: 1e-10, Precond: PrecondTree})
	b := make(mat.Vec, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	mean := mat.Mean(b)
	want := b.Clone()
	for i := range want {
		want[i] -= mean
	}
	if mat.MaxAbsDiff(l.MulVec(x), want) > 1e-8 {
		t.Fatal("tree-preconditioned solve inaccurate on a tree")
	}
}

func TestTreePrecBeatsJacobiOnHeterogeneousWeights(t *testing.T) {
	// Graph with weights spanning 8 orders of magnitude (the kNN-manifold
	// regime): the tree preconditioner should need far fewer iterations.
	rng := rand.New(rand.NewSource(48))
	n := 150
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i), math.Pow(10, rng.Float64()*8-4))
	}
	for k := 0; k < 250; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, math.Pow(10, rng.Float64()*8-4))
		}
	}
	l := g.Laplacian()
	b := make(mat.Vec, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	mean := mat.Mean(b)
	for i := range b {
		b[i] -= mean
	}
	_, resJ, _ := PCG(AsOp(l), NewJacobi(l), b, nil, Options{Tol: 1e-8, MaxIter: 20000})
	_, resT, _ := PCG(AsOp(l), NewTreePrecFromCSR(l), b, nil, Options{Tol: 1e-8, MaxIter: 20000})
	if resT.Residual > 1e-8 {
		t.Fatalf("tree-preconditioned PCG did not converge: %v", resT.Residual)
	}
	if resT.Iterations >= resJ.Iterations {
		t.Fatalf("tree prec (%d iters) not better than Jacobi (%d iters)", resT.Iterations, resJ.Iterations)
	}
}

func TestTreePrecDisconnected(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 2)
	g.AddEdge(2, 3, 1)
	// Node 4 isolated.
	l := g.Laplacian()
	tp := NewTreePrecFromCSR(l)
	r := mat.Vec{1, -1, 2, -2, 5}
	z := make(mat.Vec, 5)
	tp.PrecondTo(z, r)
	// Mean-free per component, finite everywhere.
	if math.Abs(z[0]+z[1]) > 1e-12 || math.Abs(z[2]+z[3]) > 1e-12 || z[4] != 0 {
		t.Fatalf("tree prec per-component handling wrong: %v", z)
	}
	// z solves the tree system: L z = projected r on components with edges.
	lz := l.MulVec(z)
	if math.Abs(lz[0]-1) > 1e-9 || math.Abs(lz[2]-2) > 1e-9 {
		t.Fatalf("tree solve wrong: %v", lz)
	}
}
