package core

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/circuit"
	"cirstag/internal/eig"
	"cirstag/internal/gnn"
	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/metrics"
	"cirstag/internal/nn"
	"cirstag/internal/sparse"
)

// groundedOp applies x ↦ R⁻¹·L_X·R⁻ᵀ·x on the n−1 coordinates left after
// grounding node 0, where R is the lower Cholesky factor of the grounded
// L_Y. Its eigenvalues are the generalized eigenvalues of (L_X, L_Y) on 1⊥.
type groundedOp struct {
	lx  *sparse.CSR
	r   *mat.Dense
	buf mat.Vec // length n: [0; R⁻ᵀ·x], then L_X times it
}

func (o *groundedOp) Dim() int { return o.r.Rows }

func (o *groundedOp) ApplyTo(y, x mat.Vec) {
	o.buf[0] = 0
	copy(o.buf[1:], x)
	backSolveT(o.r, o.buf[1:])
	t := o.lx.MulVec(o.buf)
	copy(y, t[1:])
	forwardSolve(o.r, y)
}

// forwardSolve overwrites b with R⁻¹·b for lower-triangular R.
func forwardSolve(r *mat.Dense, b mat.Vec) {
	for i := range b {
		row := r.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
}

// backSolveT overwrites b with R⁻ᵀ·b for lower-triangular R, reading R by
// rows.
func backSolveT(r *mat.Dense, b mat.Vec) {
	for i := len(b) - 1; i >= 0; i-- {
		row := r.Row(i)
		b[i] /= row[i]
		for k := 0; k < i; k++ {
			b[k] -= row[k] * b[i]
		}
	}
}

// quadForm returns vᵀ·L·v for g's Laplacian L as Σ w·(v_u − v_v)² over
// edges: a sum of non-negative terms, accurate however ill-conditioned L is.
func quadForm(g *graph.Graph, v mat.Vec) float64 {
	var q float64
	for _, e := range g.Edges() {
		d := v[e.U] - v[e.V]
		q += e.W * d * d
	}
	return q
}

// denseReference returns the top k generalized eigenpairs of L_X·v = ζ·L_Y·v
// for gx and gy. The vectors come from a dense Cholesky factor of the
// grounded L_Y and a 300-step fully reorthogonalized Lanczos on groundedOp,
// mean-free and L_Y-normalized as GeneralizedTopKSeeded returns them. Each
// value is its vector's Rayleigh quotient vᵀL_Xv / vᵀL_Yv: the manifolds'
// edge weights span many decades, which costs the factored operator's own
// Ritz values about 1e-4 of ζ₁ on ss_pcm, while the vectors stay accurate.
func denseReference(t *testing.T, gx, gy *graph.Graph, k int) []eig.GeneralizedPair {
	t.Helper()
	ly := gy.Laplacian()
	n := ly.Rows
	b := mat.NewDense(n-1, n-1)
	for i := 1; i < n; i++ {
		for idx := ly.RowPtr[i]; idx < ly.RowPtr[i+1]; idx++ {
			if j := ly.ColIdx[idx]; j > 0 {
				b.Set(i-1, j-1, ly.Val[idx])
			}
		}
	}
	r, err := mat.Cholesky(b)
	if err != nil {
		t.Fatalf("grounded L_Y: %v", err)
	}
	op := &groundedOp{lx: gx.Laplacian(), r: r, buf: make(mat.Vec, n)}
	_, vecs := eig.Lanczos(op, k, eig.Largest, rand.New(rand.NewSource(1)), eig.Options{MaxIter: 300})
	out := make([]eig.GeneralizedPair, k)
	for c := range out {
		v := make(mat.Vec, n)
		copy(v[1:], vecs.Col(c))
		backSolveT(r, v[1:])
		m := mat.Mean(v)
		for i := range v {
			v[i] -= m
		}
		qy := quadForm(gy, v)
		mat.Scale(1/math.Sqrt(qy), v)
		out[c] = eig.GeneralizedPair{Value: quadForm(gx, v), Vector: v}
	}
	return out
}

// topOverlap is the share of a's top 1% of nodes that is also in b's.
func topOverlap(a, b mat.Vec) float64 {
	ta, tb := Rank(a, nil).TopPercent(1), Rank(b, nil).TopPercent(1)
	in := make(map[int]bool, len(tb))
	for _, p := range tb {
		in[p] = true
	}
	hit := 0
	for _, p := range ta {
		if in[p] {
			hit++
		}
	}
	return float64(hit) / float64(len(ta))
}

// cliOptions are the options the CLI and the cirbench analyze workload run
// with at seed 1.
var cliOptions = Options{Seed: 1, EmbedDims: 16, ScoreDims: 8, FeatureAlpha: 1}

// ssPCMInput is the cirbench analyze workload's input for ss_pcm at seed 1:
// the pin graph, its features, and the outputs of an untrained two-layer
// GCN.
func ssPCMInput(t *testing.T) Input {
	t.Helper()
	nl, err := circuit.BenchmarkByName("ss_pcm", 1)
	if err != nil {
		t.Fatal(err)
	}
	g := nl.PinGraph()
	rng := rand.New(rand.NewSource(1))
	adj := gnn.NormalizedAdjacency(g)
	feat := nl.Features()
	l1 := gnn.NewGCNLayer(adj, feat.Cols, 16, rng)
	l2 := gnn.NewGCNLayer(adj, 16, 16, rng)
	y := l2.Forward((&nn.Tanh{}).Forward(l1.Forward(feat)))
	return Input{Graph: g, Output: y, Features: feat}
}

// TestEigensolveMatchesDenseReference checks Run's Phase-3 eigensolve
// against exact arithmetic on a pipeline manifold pair: ss_pcm at seed 1,
// with the CLI options and the untrained two-layer GCN outputs of the
// cirbench analyze workload, and the manifolds bridged as Run bridges them.
// The scores are compared with exact s = 8 scores, built the same way from
// the reference pairs. Measured: top-8 relative error at most 1.7e-7 (ζ₅),
// Spearman 1 − 1.2e-7, top-1% overlap 1. The bridged ζ₁ is 4.95e5, against
// 1.7e4 for ζ₂.
func TestEigensolveMatchesDenseReference(t *testing.T) {
	const (
		maxRelErr   = 1e-6
		minSpearman = 0.99999
		minOverlap  = 1.0
	)
	res, err := Run(ssPCMInput(t), cliOptions)
	if err != nil {
		t.Fatal(err)
	}

	ref := denseReference(t, res.InputManifold, res.OutputManifold, len(res.Eigenvalues))
	for i, p := range ref {
		if rel := math.Abs(res.Eigenvalues[i]-p.Value) / p.Value; rel > maxRelErr {
			t.Errorf("ζ%d = %.8g, reference %.8g (relative error %.2g > %g)", i+1, res.Eigenvalues[i], p.Value, rel, maxRelErr)
		}
	}
	_, exact := stabilityScores(res.InputManifold, ref)
	if rho := metrics.Spearman(res.NodeScores, exact); rho < minSpearman {
		t.Errorf("node-score Spearman against exact s = 8 scores %.8f < %g", rho, minSpearman)
	}
	if ov := topOverlap(exact, res.NodeScores); ov < minOverlap {
		t.Errorf("top-1%% overlap with exact s = 8 scores %.3f < %g", ov, minOverlap)
	}
}
