package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/knn"
	"cirstag/internal/mat"
	"cirstag/internal/parallel"
)

// bitsEqualCol reports whether column j of m is bitwise identical to v.
func bitsEqualCol(m *mat.Dense, j int, v mat.Vec) bool {
	for i := 0; i < m.Rows; i++ {
		if math.Float64bits(m.Data[i*m.Cols+j]) != math.Float64bits(v[i]) {
			return false
		}
	}
	return true
}

func randomRHS(rng *rand.Rand, rows, cols int) *mat.Dense {
	b := mat.NewDense(rows, cols)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return b
}

// The core contract of the blocked solver: with a nil guess, every column of
// SolveBlockGuess is bitwise identical to a standalone Solve on that column —
// same projections, same PCG recurrence, same floating-point operation order.
func TestSolveBlockBitIdenticalToSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range []struct {
		n, extra, cols int
		opts           Options
	}{
		{40, 60, 5, Options{Tol: 1e-10}},
		{40, 60, 5, Options{Tol: 1e-10, Precond: PrecondTree}},
		{25, 30, 3, Options{Tol: 1e-6, MaxIter: 7}},           // budget-limited: best-iterate path
		{30, 0, 4, Options{Tol: 1e-10, Precond: PrecondTree}}, // tree graph: exact precond
	} {
		g := randomConnectedGraph(rng, tc.n, tc.extra)
		s := NewLaplacian(g, tc.opts)
		b := randomRHS(rng, tc.n, tc.cols)
		out, blockErr := s.SolveBlockGuess(b, nil)
		var scalarErr error
		for j := 0; j < tc.cols; j++ {
			x, err := s.Solve(b.Col(j))
			if err != nil && scalarErr == nil {
				scalarErr = err
			}
			if !bitsEqualCol(out, j, x) {
				t.Fatalf("n=%d cols=%d opts=%+v: column %d differs from scalar Solve", tc.n, tc.cols, tc.opts, j)
			}
		}
		if (blockErr == nil) != (scalarErr == nil) {
			t.Fatalf("error mismatch: block=%v scalar=%v", blockErr, scalarErr)
		}
	}
}

// Tiling boundary: widths beyond maxBlockCols split into independent tiles
// that must still match the scalar path column for column.
func TestSolveBlockWideBlockTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	n := 30
	g := randomConnectedGraph(rng, n, 45)
	s := NewLaplacian(g, Options{Tol: 1e-9})
	cols := maxBlockCols + 7
	b := randomRHS(rng, n, cols)
	out, err := s.SolveBlockGuess(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, maxBlockCols - 1, maxBlockCols, cols - 1} {
		x, _ := s.Solve(b.Col(j))
		if !bitsEqualCol(out, j, x) {
			t.Fatalf("column %d across the tile boundary differs from scalar Solve", j)
		}
	}
}

// Worker equivalence: the blocked solve is bit-identical for any worker
// count (chunk boundaries are a pure function of problem size, per-column
// reductions are column-private). Run under -race in CI.
func TestSolveBlockWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n := 120
	g := randomConnectedGraph(rng, n, 240)
	b := randomRHS(rng, n, 9)

	solveWith := func(workers int) *mat.Dense {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		s := NewLaplacian(g, Options{Tol: 1e-10, Precond: PrecondTree})
		out, err := s.SolveBlockGuess(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := solveWith(1)
	for _, w := range []int{2, 4, 16} {
		got := solveWith(w)
		for i := range ref.Data {
			if math.Float64bits(ref.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("workers=%d: SolveBlockGuess differs from single-worker result at flat index %d", w, i)
			}
		}
	}
}

func TestPCGBlockZeroColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	a := spdCSR(rng, 30)
	b := randomRHS(rng, 30, 3)
	for i := 0; i < 30; i++ {
		b.Data[i*3+1] = 0 // middle column: zero rhs
	}
	x, results, errs := PCGBlockGuess(a, NewJacobi(a), b, nil, Options{Tol: 1e-10})
	if errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if results[1].Iterations != 0 || results[1].Residual != 0 {
		t.Fatalf("zero column result = %+v, want {0 0}", results[1])
	}
	for i := 0; i < 30; i++ {
		if x.Data[i*3+1] != 0 {
			t.Fatal("zero rhs must give the zero solution")
		}
	}
	// Flanking columns behave exactly like scalar PCG.
	for _, j := range []int{0, 2} {
		xs, rs, err := PCG(AsOp(a), NewJacobi(a), b.Col(j), nil, Options{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqualCol(x, j, xs) || results[j] != rs {
			t.Fatalf("column %d diverges from scalar PCG: %+v vs %+v", j, results[j], rs)
		}
	}
}

func TestPCGBlockMatchesScalarOnSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	a := spdCSR(rng, 64)
	b := randomRHS(rng, 64, 6)
	for _, prec := range []Preconditioner{identityPrec{}, NewJacobi(a)} {
		x, results, errs := PCGBlockGuess(a, prec, b, nil, Options{Tol: 1e-10})
		for j := 0; j < b.Cols; j++ {
			xs, rs, err := PCG(AsOp(a), prec, b.Col(j), nil, Options{Tol: 1e-10})
			if (errs[j] == nil) != (err == nil) {
				t.Fatalf("prec %T col %d: err mismatch %v vs %v", prec, j, errs[j], err)
			}
			if results[j] != rs {
				t.Fatalf("prec %T col %d: stats %+v vs %+v", prec, j, results[j], rs)
			}
			if !bitsEqualCol(x, j, xs) {
				t.Fatalf("prec %T col %d: solution bits differ", prec, j)
			}
		}
	}
}

// A starved iteration budget must reproduce the scalar best-iterate,
// ErrNoConvergence behaviour per column while other columns stay unaffected.
func TestSolveBlockNoConvergencePerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	n := 50
	g := randomConnectedGraph(rng, n, 80)
	s := NewLaplacian(g, Options{Tol: 1e-13, MaxIter: 4})
	b := randomRHS(rng, n, 3)
	out, err := s.SolveBlockGuess(b, nil)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence with a 4-iteration budget, got %v", err)
	}
	for j := 0; j < 3; j++ {
		x, serr := s.Solve(b.Col(j))
		if !errors.Is(serr, ErrNoConvergence) {
			t.Fatalf("scalar column %d unexpectedly converged", j)
		}
		if !bitsEqualCol(out, j, x) {
			t.Fatalf("non-converged column %d differs from scalar best iterate", j)
		}
	}
}

// SolveBlockGuess: a nil guess is the zero guess (bit-identical to scalar
// Solve), an arbitrary guess still converges to the same solution within
// tolerance, and an exact guess converges without spending iterations.
func TestSolveBlockGuess(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n, cols := 40, 4
	g := randomConnectedGraph(rng, n, 60)
	s := NewLaplacian(g, Options{Tol: 1e-10, Precond: PrecondTree})
	b := randomRHS(rng, n, cols)

	plain, err := s.SolveBlockGuess(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cols; j++ {
		x, err := s.Solve(b.Col(j))
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqualCol(plain, j, x) {
			t.Fatalf("nil guess column %d differs from scalar Solve", j)
		}
	}

	// A random guess must still land on the pseudo-inverse solution.
	warm, err := s.SolveBlockGuess(b, randomRHS(rng, n, cols))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cols; j++ {
		want := plain.Col(j)
		got := warm.Col(j)
		diff := 0.0
		for i := range want {
			diff += (want[i] - got[i]) * (want[i] - got[i])
		}
		if math.Sqrt(diff) > 1e-6*(1+mat.Norm2(want)) {
			t.Fatalf("warm-started column %d off by %g", j, math.Sqrt(diff))
		}
	}

	// The exact solution as guess: residual starts below tolerance, so every
	// column must converge in zero iterations. PCGBlockGuess sees the
	// projected system, as it would inside SolveBlockGuess.
	proj := b.Clone()
	for j := 0; j < cols; j++ {
		s.projectCol(proj, j)
	}
	tile := plain.Clone()
	x, results, errs := PCGBlockGuess(s.L, s.prec, proj, tile, Options{Tol: 1e-6, MaxIter: 50})
	for j := 0; j < cols; j++ {
		if errs[j] != nil {
			t.Fatalf("exact guess column %d: %v", j, errs[j])
		}
		if results[j].Iterations != 0 {
			t.Fatalf("exact guess column %d took %d iterations, want 0", j, results[j].Iterations)
		}
		if !bitsEqualCol(x, j, tile.Col(j)) {
			t.Fatalf("exact guess column %d was modified", j)
		}
	}
}

// randomForestGraph joins random connected components of the given sizes on
// consecutive node ranges; a size of 1 is an isolated node.
func randomForestGraph(rng *rand.Rand, sizes ...int) *graph.Graph {
	n := 0
	for _, s := range sizes {
		n += s
	}
	g := graph.New(n)
	off := 0
	for _, s := range sizes {
		for _, e := range randomConnectedGraph(rng, s, 2*s).Edges() {
			g.AddEdge(off+e.U, off+e.V, e.W)
		}
		off += s
	}
	return g
}

// The block tree solve walks the forest once per column group: every
// selected column must equal PrecondTo bit for bit at any worker count, and
// the other columns of z must stay untouched.
func TestTreePrecBlockMatchesPrecondToOnForest(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(77))
	g := randomForestGraph(rng, 30, 1, 17, 12)
	n := g.N()
	tp := NewTreePrecFromCSR(g.Laplacian())
	for _, tc := range []struct {
		width int
		cols  []int
	}{
		{7, []int{0, 2, 5}},
		{20, []int{0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 15, 16, 17, 18, 19}}, // three groups
	} {
		r := randomRHS(rng, n, tc.width)
		before := randomRHS(rng, n, tc.width)
		for _, workers := range []int{1, 2, 4} {
			parallel.SetWorkers(workers)
			z := before.Clone()
			tp.PrecondBlockTo(z, r, tc.cols)
			selected := make(map[int]bool)
			for _, j := range tc.cols {
				selected[j] = true
			}
			for j := 0; j < tc.width; j++ {
				want := before.Col(j)
				if selected[j] {
					want = make(mat.Vec, n)
					tp.PrecondTo(want, r.Col(j))
				}
				if !bitsEqualCol(z, j, want) {
					t.Fatalf("width %d, workers %d: column %d (selected %v) differs", tc.width, workers, j, selected[j])
				}
			}
		}
	}
}

// With the tree preconditioner on a disconnected graph, every column of the
// block solve must equal scalar Solve bit for bit.
func TestSolveBlockOnForestBitIdenticalToSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := randomForestGraph(rng, 30, 1, 17, 12)
	s := NewLaplacian(g, Options{Tol: 1e-10, Precond: PrecondTree})
	b := randomRHS(rng, g.N(), 7)
	out, err := s.SolveBlockGuess(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < b.Cols; j++ {
		x, err := s.Solve(b.Col(j))
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqualCol(out, j, x) {
			t.Fatalf("column %d differs from scalar Solve", j)
		}
	}
}

var blockSink *mat.Dense

// BenchmarkSolveBlock measures the block PCG kernel in the shape of Phase 2's
// ranking sketch, a layer cirbench cannot time on its own: 48 right-hand
// sides Bᵀ W^{1/2} ξ with random signs ξ, on a 1/d² kNN manifold of 10k
// nodes (k = 10 over Gaussian points in 8 dimensions), with the sketch's
// budget of 150 iterations at tolerance 1e-4 and the tree preconditioner.
func BenchmarkSolveBlock(b *testing.B) {
	const n, q = 10000, 48
	rng := rand.New(rand.NewSource(1))
	pts := mat.NewDense(n, 8)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	g := graph.New(n)
	for _, e := range knn.BuildGraph(pts, 10).Edges {
		g.AddEdge(e.U, e.V, e.W)
	}
	s := NewLaplacian(g, Options{Tol: 1e-4, MaxIter: 150, Precond: PrecondTree})
	rhs := mat.NewDense(n, q)
	scale := 1 / math.Sqrt(q)
	for r := 0; r < q; r++ {
		for _, e := range g.Edges() {
			c := scale * math.Sqrt(e.W)
			if rng.Intn(2) == 0 {
				c = -c
			}
			rhs.Data[e.U*q+r] += c
			rhs.Data[e.V*q+r] -= c
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blockSink, _ = s.SolveBlockGuess(rhs, nil)
	}
}
