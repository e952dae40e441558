package eig

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/solver"
	"cirstag/internal/sparse"
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

func TestLanczosMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	g := randomConnectedGraph(rng, 40, 60)
	l := g.Laplacian()
	wantVals, _ := mat.SymEig(l.ToDense())

	k := 5
	gotSmall, _ := Lanczos(solver.AsOp(l), k, Smallest, rng, Options{MaxIter: 40})
	for i := 0; i < k; i++ {
		if math.Abs(gotSmall[i]-wantVals[i]) > 1e-6 {
			t.Fatalf("smallest eig %d: got %v want %v", i, gotSmall[i], wantVals[i])
		}
	}
	gotLarge, _ := Lanczos(solver.AsOp(l), k, Largest, rng, Options{MaxIter: 40})
	n := l.Rows
	for i := 0; i < k; i++ {
		if math.Abs(gotLarge[i]-wantVals[n-1-i]) > 1e-6 {
			t.Fatalf("largest eig %d: got %v want %v", i, gotLarge[i], wantVals[n-1-i])
		}
	}
}

func TestLanczosEigenvectorResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := randomConnectedGraph(rng, 50, 70)
	l := g.Laplacian()
	k := 4
	vals, vecs := Lanczos(solver.AsOp(l), k, Largest, rng, Options{MaxIter: 50})
	for j := 0; j < k; j++ {
		v := vecs.Col(j)
		av := l.MulVec(v)
		lv := v.Clone()
		mat.Scale(vals[j], lv)
		if mat.MaxAbsDiff(av, lv) > 1e-5 {
			t.Fatalf("Ritz residual too large for pair %d: %v", j, mat.MaxAbsDiff(av, lv))
		}
		if math.Abs(mat.Norm2(v)-1) > 1e-10 {
			t.Fatal("eigenvector not unit norm")
		}
	}
}

func TestSmallestNormalizedLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := randomConnectedGraph(rng, 35, 50)
	ln := g.NormalizedLaplacian()
	wantVals, _ := mat.SymEig(ln.ToDense())
	k := 6
	got, vecs := SmallestNormalizedLaplacian(ln, k, rng, Options{MaxIter: 35})
	for i := 0; i < k; i++ {
		if math.Abs(got[i]-wantVals[i]) > 1e-6 {
			t.Fatalf("normalized smallest %d: got %v want %v", i, got[i], wantVals[i])
		}
	}
	if got[0] < 0 {
		t.Fatal("eigenvalue clamped below zero")
	}
	// First eigenvector should be parallel to D^{1/2}·1.
	d := make(mat.Vec, g.N())
	for u := 0; u < g.N(); u++ {
		d[u] = math.Sqrt(g.WeightedDegree(u))
	}
	mat.Normalize(d)
	v0 := vecs.Col(0)
	cos := math.Abs(mat.Dot(d, v0))
	if cos < 1-1e-6 {
		t.Fatalf("trivial eigenvector wrong: |cos| = %v", cos)
	}
}

func TestLanczosPathGraphAnalytic(t *testing.T) {
	// Path graph Laplacian eigenvalues: 2 - 2 cos(pi k / n), k = 0..n-1.
	n := 30
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	rng := rand.New(rand.NewSource(53))
	k := 4
	vals, _ := Lanczos(solver.AsOp(g.Laplacian()), k, Smallest, rng, Options{MaxIter: 30})
	for i := 0; i < k; i++ {
		want := 2 - 2*math.Cos(math.Pi*float64(i)/float64(n))
		if math.Abs(vals[i]-want) > 1e-6 {
			t.Fatalf("path eig %d: got %v want %v", i, vals[i], want)
		}
	}
}

// denseGeneralizedOracle solves L_X v = ζ L_Y v modulo the shared null
// vector 1 by dense reduction: ground node 0 (drop its row and column, which
// keeps every non-trivial pair because shifting v by c·1 changes neither
// quadratic form) and solve the reduced symmetric-definite problem via
// Cholesky whitening.
func denseGeneralizedOracle(t *testing.T, lx, ly *sparse.CSR) mat.Vec {
	t.Helper()
	n := lx.Rows
	m := n - 1
	lxD := lx.ToDense()
	lyD := ly.ToDense()
	rx, ry := mat.NewDense(m, m), mat.NewDense(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			rx.Set(i, j, lxD.At(i+1, j+1))
			ry.Set(i, j, lyD.At(i+1, j+1))
		}
	}
	// Whiten: ry = C Cᵀ, solve C⁻¹ rx C⁻ᵀ.
	c, err := mat.Cholesky(ry)
	if err != nil {
		t.Fatalf("oracle cholesky: %v", err)
	}
	// Solve C y = rx columnwise, then C z = yᵀ columnwise.
	y := mat.NewDense(m, m)
	for j := 0; j < m; j++ {
		// forward solve C y_j = rx_col_j
		col := rx.Col(j)
		out := make(mat.Vec, m)
		for i := 0; i < m; i++ {
			s := col[i]
			for k2 := 0; k2 < i; k2++ {
				s -= c.At(i, k2) * out[k2]
			}
			out[i] = s / c.At(i, i)
		}
		y.SetCol(j, out)
	}
	yt := y.T()
	s := mat.NewDense(m, m)
	for j := 0; j < m; j++ {
		col := yt.Col(j)
		out := make(mat.Vec, m)
		for i := 0; i < m; i++ {
			ss := col[i]
			for k2 := 0; k2 < i; k2++ {
				ss -= c.At(i, k2) * out[k2]
			}
			out[i] = ss / c.At(i, i)
		}
		s.SetCol(j, out)
	}
	vals, _ := mat.SymEig(s)
	return vals
}

func TestGeneralizedTopKAgainstDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	gx := randomConnectedGraph(rng, 25, 35)
	gy := randomConnectedGraph(rng, 25, 35)
	lx, ly := gx.Laplacian(), gy.Laplacian()
	oracle := denseGeneralizedOracle(t, lx, ly)
	k := 4
	pairs := GeneralizedTopKSeeded(lx, ly, k, nil, rng, Options{MaxIter: 24, InnerTol: 1e-10})
	for i := 0; i < k; i++ {
		want := oracle[len(oracle)-1-i]
		if math.Abs(pairs[i].Value-want) > 1e-5*math.Max(1, want) {
			t.Fatalf("generalized eig %d: got %v want %v", i, pairs[i].Value, want)
		}
	}
	// Descending order.
	for i := 1; i < k; i++ {
		if pairs[i].Value > pairs[i-1].Value+1e-9 {
			t.Fatal("generalized eigenvalues not descending")
		}
	}
}

func TestGeneralizedEigenpairResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	gx := randomConnectedGraph(rng, 30, 45)
	gy := randomConnectedGraph(rng, 30, 45)
	lx, ly := gx.Laplacian(), gy.Laplacian()
	pairs := GeneralizedTopKSeeded(lx, ly, 3, nil, rng, Options{MaxIter: 29, InnerTol: 1e-10})
	for i, p := range pairs {
		// Residual: L_X v - ζ L_Y v should vanish.
		r := lx.MulVec(p.Vector)
		mat.Axpy(-p.Value, ly.MulVec(p.Vector), r)
		// Scale-relative check.
		if mat.Norm2(r) > 1e-4*(1+p.Value) {
			t.Fatalf("pair %d residual %v too large (ζ=%v)", i, mat.Norm2(r), p.Value)
		}
		// Mean-free and B-normalized.
		if math.Abs(mat.Sum(p.Vector)) > 1e-6 {
			t.Fatal("generalized eigenvector not mean-free")
		}
		bnorm := mat.Dot(p.Vector, ly.MulVec(p.Vector))
		if math.Abs(bnorm-1) > 1e-6 {
			t.Fatalf("eigenvector not L_Y-normalized: %v", bnorm)
		}
	}
}

func TestGeneralizedIdenticalGraphsUnitEigenvalues(t *testing.T) {
	// If L_X == L_Y, every generalized eigenvalue on 1⊥ is exactly 1.
	rng := rand.New(rand.NewSource(56))
	g := randomConnectedGraph(rng, 20, 30)
	l := g.Laplacian()
	pairs := GeneralizedTopKSeeded(l, l, 5, nil, rng, Options{MaxIter: 19, InnerTol: 1e-10})
	for i, p := range pairs {
		if math.Abs(p.Value-1) > 1e-7 {
			t.Fatalf("identical-graph eigenvalue %d = %v, want 1", i, p.Value)
		}
	}
}

func TestGeneralizedKClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	g := randomConnectedGraph(rng, 8, 10)
	l := g.Laplacian()
	pairs := GeneralizedTopKSeeded(l, l, 100, nil, rng, Options{})
	if len(pairs) > 7 {
		t.Fatalf("k should clamp to n-1=7, got %d", len(pairs))
	}
}

func TestLanczosSeedDeterminism(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(58)), 30, 40)
	l := g.Laplacian()
	v1, _ := Lanczos(solver.AsOp(l), 3, Smallest, rand.New(rand.NewSource(7)), Options{})
	v2, _ := Lanczos(solver.AsOp(l), 3, Smallest, rand.New(rand.NewSource(7)), Options{})
	if mat.MaxAbsDiff(v1, v2) != 0 {
		t.Fatal("same seed should give identical results")
	}
}

// Warm-starting from the problem's own eigenvectors must still reproduce the
// dense-oracle eigenvalues — seeding changes the start subspace, never the
// answer — and skip unusable seeds without derailing.
func TestGeneralizedSeededMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	gx := randomConnectedGraph(rng, 25, 35)
	gy := randomConnectedGraph(rng, 25, 35)
	lx, ly := gx.Laplacian(), gy.Laplacian()
	ref := GeneralizedTopKSeeded(lx, ly, 3, nil, rand.New(rand.NewSource(9)), Options{})

	// Seeds: one wrong-length, one non-finite, then real eigenvector seeds.
	seeds := []mat.Vec{
		make(mat.Vec, 7),
		append(mat.Vec{math.NaN()}, make(mat.Vec, 24)...),
	}
	for _, p := range ref {
		seeds = append(seeds, p.Vector)
	}
	got := GeneralizedTopKSeeded(lx, ly, 3, seeds, rand.New(rand.NewSource(10)), Options{})
	if len(got) != len(ref) {
		t.Fatalf("pair counts differ: %d vs %d", len(got), len(ref))
	}
	for i := range got {
		denom := math.Max(math.Abs(ref[i].Value), 1e-8)
		if rel := math.Abs(got[i].Value-ref[i].Value) / denom; rel > 2e-2 {
			t.Fatalf("seeded eigenvalue %d = %v, reference %v (rel %.3g)", i, got[i].Value, ref[i].Value, rel)
		}
	}
}

// countedGeneralized runs GeneralizedTopKSeeded with default options and obs
// recording on, and returns its pairs, its step count (the final basis size)
// and its restart count. Every step is one inner solve, so the iterations
// counter must agree with the basis gauge.
func countedGeneralized(t *testing.T, lx, ly *sparse.CSR, k int) (pairs []GeneralizedPair, steps int, restarts int64) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	pairs = GeneralizedTopKSeeded(lx, ly, k, nil, rand.New(rand.NewSource(1)), Options{})
	steps = int(genBasis.Value())
	if iters := genIters.Value(); iters != int64(steps) {
		t.Fatalf("%d inner solves for a basis of %d vectors", iters, steps)
	}
	return pairs, steps, genRestarts.Value()
}

func checkAgainstOracle(t *testing.T, pairs []GeneralizedPair, oracle mat.Vec) {
	t.Helper()
	for i, p := range pairs {
		want := oracle[len(oracle)-1-i]
		if math.Abs(p.Value-want) > 1e-5*math.Max(1, want) {
			t.Fatalf("generalized eig %d: got %v want %v", i, p.Value, want)
		}
	}
}

// convergingPair is a random pair whose top 4 Ritz pairs meet the default
// 1e-4 residual target after 19 steps, well before the 36-step ceiling.
func convergingPair() (lx, ly *sparse.CSR) {
	rng := rand.New(rand.NewSource(94))
	gx := randomConnectedGraph(rng, 200, 100)
	gy := randomConnectedGraph(rng, 200, 100)
	return gx.Laplacian(), gy.Laplacian()
}

// heavyEdgePair is L_Y plus one heavy edge (p, q): every generalized
// eigenvalue is 1 except ζ₁ = 1 + w·R_Y(p, q), whose eigenvector L_Y⁺·e_pq
// lies in the first two-step Krylov block. Every later direction breaks down
// after one step.
func heavyEdgePair() (lx, ly *sparse.CSR) {
	gy := randomConnectedGraph(rand.New(rand.NewSource(90)), 60, 40)
	gx := gy.Clone()
	gx.AddEdge(0, 59, 1e3)
	return gx.Laplacian(), gy.Laplacian()
}

// Rule 1: with default options the iteration stops once every top-k Ritz
// residual estimate is within 100·InnerTol of its value, before MaxIter, and
// the values still match the dense oracle.
func TestGeneralizedStopsWhenRitzPairsConverge(t *testing.T) {
	lx, ly := convergingPair()
	pairs, steps, restarts := countedGeneralized(t, lx, ly, 4)
	if steps >= 36 {
		t.Fatalf("solve ran %d steps, want fewer than the MaxIter ceiling of 36", steps)
	}
	if restarts != 0 {
		t.Fatalf("%d restarts, want 0", restarts)
	}
	checkAgainstOracle(t, pairs, denseGeneralizedOracle(t, lx, ly))
}

// Rule 2: a breakdown once the basis holds k vectors ends the solve instead
// of restarting it. Here the first block breaks down at m = 2, the restarts
// at m = 2 and 3 stay, and the breakdown at m = k = 4 stops the solve.
func TestGeneralizedStopsAtBreakdownOnceBasisHoldsK(t *testing.T) {
	lx, ly := heavyEdgePair()
	const k = 4
	pairs, steps, restarts := countedGeneralized(t, lx, ly, k)
	if steps != k {
		t.Fatalf("solve ran %d steps, want %d", steps, k)
	}
	if restarts != k-2 {
		t.Fatalf("%d restarts, want %d (all below k)", restarts, k-2)
	}
	checkAgainstOracle(t, pairs, denseGeneralizedOracle(t, lx, ly))
}

// The stop decision reads only the tridiagonal, so both stop rules fire at
// the same step, with the same pair bits, at any worker count.
func TestGeneralizedStopWorkerEquivalence(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, c := range []struct {
		name string
		pair func() (lx, ly *sparse.CSR)
	}{
		{"converged", convergingPair},
		{"breakdown", heavyEdgePair},
	} {
		lx, ly := c.pair()
		parallel.SetWorkers(1)
		ref, refSteps, _ := countedGeneralized(t, lx, ly, 4)
		for _, w := range []int{2, 4} {
			parallel.SetWorkers(w)
			got, steps, _ := countedGeneralized(t, lx, ly, 4)
			if steps != refSteps {
				t.Fatalf("%s, %d workers: %d steps, 1 worker: %d", c.name, w, steps, refSteps)
			}
			for i := range ref {
				if math.Float64bits(got[i].Value) != math.Float64bits(ref[i].Value) {
					t.Fatalf("%s, %d workers: value %d differs from 1 worker", c.name, w, i)
				}
				for x := range ref[i].Vector {
					if math.Float64bits(got[i].Vector[x]) != math.Float64bits(ref[i].Vector[x]) {
						t.Fatalf("%s, %d workers: vector %d differs at entry %d", c.name, w, i, x)
					}
				}
			}
		}
	}
}
