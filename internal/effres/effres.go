// Package effres computes effective resistances of weighted undirected
// graphs. The effective resistance R_eff(u, v) = (e_u − e_v)ᵀ L⁺ (e_u − e_v)
// is the distance metric CirSTAG uses on its manifolds (Phase 3) and the
// spectral-importance signal of its PGM sparsifier (Phase 2, η = w·R_eff).
//
// Two estimators are provided:
//
//   - Exact: one Laplacian solve per query.
//   - Sketch: the Spielman–Srivastava Johnson–Lindenstrauss construction.
//     Z = Q·W^{1/2}·B·L⁺ (q x n) is built with q = O(log n / ε²) random
//     projection rows and q Laplacian solves; afterwards every edge query is
//     O(q) via R_eff(u,v) ≈ ‖Z(e_u − e_v)‖².
package effres

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/solver"
)

// Sketch-construction metrics: builds are the expensive part of the
// approximate-DMD path (q Laplacian solves each), so their count, width, and
// wall time are exported for the Prometheus and trace layers.
var (
	sketchBuilds  = obs.NewCounter("effres.sketch.builds")
	sketchRows    = obs.NewHistogram("effres.sketch.rows", obs.ExpBuckets(8, 2, 10)...)
	sketchBuildMS = obs.NewHistogram("effres.sketch.build_ms", obs.ExpBuckets(0.25, 2, 20)...)
)

// Exact computes R_eff(u, v) with a single Laplacian solve. For nodes in
// different components it returns +Inf.
func Exact(s *solver.Laplacian, u, v int) float64 {
	n := s.Dim()
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("effres: node (%d,%d) out of range n=%d", u, v, n))
	}
	if u == v {
		return 0
	}
	b := make(mat.Vec, n)
	b[u] = 1
	b[v] = -1
	x, err := s.Solve(b)
	if err != nil {
		// Best-iterate fallback still yields a usable estimate.
		_ = err
	}
	r := x[u] - x[v]
	if r < 0 {
		r = 0
	}
	return r
}

// Sketch holds a JL projection of the resistance embedding. Rows of Z give a
// q-dimensional Euclidean embedding whose pairwise squared distances
// approximate effective resistances within (1 ± ε) with high probability.
type Sketch struct {
	Z *mat.Dense // n x q
}

// SketchQ returns the projection count q for a target relative error eps on
// sketched resistances: q = ceil(9·ln(n+2)/eps²), clamped to [1, 1024] and to
// 2n. The constant is empirical (the JL theory constant of 24 is far too
// conservative in practice); eps outside (0,1) falls back to 0.3.
func SketchQ(n int, eps float64) int {
	if eps <= 0 || eps >= 1 {
		eps = 0.3
	}
	q := int(math.Ceil(9 * math.Log(float64(n)+2) / (eps * eps)))
	if q > 1024 {
		q = 1024
	}
	if q > 2*n {
		q = 2 * n
	}
	if q < 1 {
		q = 1
	}
	return q
}

// NewSketch builds an effective-resistance sketch with q projection rows
// (q <= 0 selects q = ceil(24·ln n / ε²) with ε = 0.3, capped to 64).
// All q right-hand sides y_r = Bᵀ W^{1/2} ξ_r are generated first (consuming
// rng in the same order as the historical one-solve-at-a-time construction)
// and solved in one blocked multi-RHS PCG call, so building the sketch costs
// q batched solves sharing one preconditioner and fused SpMVs instead of q
// serial solves — with bit-identical Z for a fixed seed.
func NewSketch(g *graph.Graph, q int, rng *rand.Rand, opts solver.Options) *Sketch {
	n := g.N()
	if q <= 0 {
		q = int(math.Ceil(24 * math.Log(float64(n)+2) / (0.3 * 0.3)))
		if q > 64 {
			q = 64
		}
	}
	if q > 2*n {
		q = 2 * n
	}
	if q < 1 {
		q = 1
	}
	start := time.Now()
	s := solver.NewLaplacian(g, opts)
	edges := g.Edges()
	b := mat.NewDense(n, q)
	invSqrtQ := 1 / math.Sqrt(float64(q))
	for r := 0; r < q; r++ {
		for _, e := range edges {
			sgn := invSqrtQ
			if rng.Intn(2) == 0 {
				sgn = -sgn
			}
			c := sgn * math.Sqrt(e.W)
			b.Data[e.U*q+r] += c
			b.Data[e.V*q+r] -= c
		}
	}
	// Column r of the block solution is L⁺ y_r — exactly the r-th column the
	// serial construction stored, so Z's layout and bits are unchanged.
	z, _ := s.SolveBlockGuess(b, nil)
	sketchBuilds.Inc()
	sketchRows.Observe(float64(q))
	sketchBuildMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return &Sketch{Z: z}
}

// Resistance returns the sketched effective resistance between u and v.
func (sk *Sketch) Resistance(u, v int) float64 {
	if u == v {
		return 0
	}
	q := sk.Z.Cols
	zu := sk.Z.Data[u*q : (u+1)*q]
	zv := sk.Z.Data[v*q : (v+1)*q]
	var s float64
	for i := range zu {
		d := zu[i] - zv[i]
		s += d * d
	}
	return s
}

// EdgeResistances returns sketched resistances for every edge of g, indexed
// like g.Edges().
func (sk *Sketch) EdgeResistances(g *graph.Graph) []float64 {
	edges := g.Edges()
	out := make([]float64, len(edges))
	for i, e := range edges {
		out[i] = sk.Resistance(e.U, e.V)
	}
	return out
}
