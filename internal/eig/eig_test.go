package eig

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
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

// denseGeneralizedOracle solves L_X v = ζ L_Y v on the mean-free subspace by
// dense reduction: project both onto an orthonormal basis of 1⊥ and solve the
// reduced symmetric-definite problem via Cholesky whitening.
func denseGeneralizedOracle(t *testing.T, lx, ly *sparse.CSR) mat.Vec {
	t.Helper()
	n := lx.Rows
	// Basis of 1⊥: columns of P (n x n-1) from QR of [e_i - 1/n].
	pm := mat.NewDense(n, n-1)
	for j := 0; j < n-1; j++ {
		for i := 0; i < n; i++ {
			v := -1.0 / float64(n)
			if i == j {
				v += 1
			}
			pm.Set(i, j, v)
		}
	}
	mat.Orthonormalize(pm)
	lxD := lx.ToDense()
	lyD := ly.ToDense()
	// Reduced matrices: Pᵀ L P.
	rx := pm.MulT(lxD.Mul(pm))
	ry := pm.MulT(lyD.Mul(pm))
	// Whiten: ry = C Cᵀ, solve C⁻¹ rx C⁻ᵀ.
	c, err := mat.Cholesky(ry)
	if err != nil {
		t.Fatalf("oracle cholesky: %v", err)
	}
	m := n - 1
	w := mat.NewDense(m, m)
	for j := 0; j < m; j++ {
		col := mat.CholSolve(c, rx.Col(j))
		w.SetCol(j, col)
	}
	// w = ry⁻¹ rx is similar to the symmetric C⁻¹ rx C⁻ᵀ; symmetrize via
	// explicit computation: s = C⁻¹ rx C⁻ᵀ.
	// Solve C y = rx (columnwise) then C z = yᵀ columnwise.
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
