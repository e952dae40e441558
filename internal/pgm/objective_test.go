package pgm

import (
	"fmt"
	"math"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
)

// objective evaluates the SGL maximum-likelihood objective (paper eq. 6)
//
//	F(Θ) = log det(Θ) − (1/M)·Tr(XᵀΘX),  Θ = L + I/σ²,
//
// by dense eigendecomposition of L (log det via Σ log(λᵢ + 1/σ²)) and the
// edge-sum identity Tr(XᵀLX) = Σ w_pq‖Xᵀe_pq‖². Only feasible for graphs up
// to a few thousand nodes; the tests use it to score topologies against the
// objective that η-pruning maximizes greedily.
func objective(g *graph.Graph, x *mat.Dense, sigma2 float64) float64 {
	if !(sigma2 > 0) || math.IsInf(sigma2, 0) {
		panic(fmt.Sprintf("pgm: sigma2 must be positive and finite, got %v", sigma2))
	}
	if x.Rows != g.N() {
		panic(fmt.Sprintf("pgm: data rows %d, graph nodes %d", x.Rows, g.N()))
	}
	l := g.Laplacian()
	vals, _ := mat.SymEig(l.ToDense())
	var f1 float64
	for _, lam := range vals {
		if lam < 0 {
			lam = 0
		}
		// Θ = L + I/σ² is positive definite, so λ + 1/σ² > 0 in exact
		// arithmetic — but a rank-deficient L with a large σ² can underflow
		// the shift to 0 (log → −Inf), and a NaN eigenvalue from a degenerate
		// decomposition would poison the sum. Floor the argument so the
		// objective stays finite (a huge negative term still signals the
		// near-singular Θ) and treat NaN as the floor.
		arg := lam + 1/sigma2
		if !(arg > math.SmallestNonzeroFloat64) {
			arg = math.SmallestNonzeroFloat64
		}
		f1 += math.Log(arg)
	}
	m := float64(x.Cols)
	if m == 0 {
		m = 1
	}
	// Tr(XᵀX)/σ² term.
	var trXX float64
	for _, v := range x.Data {
		trXX += v * v
	}
	f2 := trXX / sigma2
	for _, e := range g.Edges() {
		var d2 float64
		ru := x.Row(e.U)
		rv := x.Row(e.V)
		for c := range ru {
			d := ru[c] - rv[c]
			d2 += d * d
		}
		f2 += e.W * d2
	}
	return f1 - f2/m
}

// TestObjectiveRankDeficientFinite is the log(0) regression: a disconnected
// graph has a multi-dimensional Laplacian kernel, and with a huge σ² the
// shift 1/σ² nearly vanishes, so log(λ + 1/σ²) used to reach −Inf on the zero
// eigenvalues. The floored argument must keep the objective finite while
// still signalling the near-singular Θ with a very negative value.
func TestObjectiveRankDeficientFinite(t *testing.T) {
	// Two components → rank deficiency 2.
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)

	x := mat.NewDense(6, 2)
	for i := 0; i < 6; i++ {
		x.Set(i, 0, float64(i))
		x.Set(i, 1, float64(i%2))
	}

	for _, sigma2 := range []float64{1, 1e12, math.MaxFloat64} {
		f := objective(g, x, sigma2)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("objective(disconnected, σ²=%v) = %v, want finite", sigma2, f)
		}
	}

	// Coincident data rows (zero pairwise distances) must also stay finite.
	konst := mat.NewDense(6, 2)
	f := objective(g, konst, 1)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		t.Fatalf("objective(constant data) = %v, want finite", f)
	}
}
