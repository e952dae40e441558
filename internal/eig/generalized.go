package eig

import (
	"fmt"
	"math"
	"math/rand"

	"cirstag/internal/faultinject"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/solver"
	"cirstag/internal/sparse"
)

// Convergence metrics of the generalized (L_Y inner product) iteration.
// eig.generalized.basis is the final Krylov basis size — when it stays well
// below MaxIter the breakdown/restart logic ended the iteration early.
var (
	genIters    = obs.NewCounter("eig.generalized.iterations")
	genRestarts = obs.NewCounter("eig.generalized.restarts")
	genSeeded   = obs.NewCounter("eig.generalized.seeded")
	genResidual = obs.NewHistogram("eig.generalized.residual", obs.ExpBuckets(1e-14, 10, 16)...)
	genBasis    = obs.NewGauge("eig.generalized.basis")
)

// GeneralizedPair is one solution of L_X·v = ζ·L_Y·v.
type GeneralizedPair struct {
	Value  float64
	Vector mat.Vec // L_Y-normalized: vᵀ·L_Y·v = 1
}

// GeneralizedTopKSeeded computes the k largest generalized eigenpairs of
// L_X·v = ζ·L_Y·v, i.e. the top eigenpairs of L_Y⁺·L_X, via a Lanczos
// iteration that is self-adjoint in the L_Y inner product. Both matrices must
// be Laplacians of connected graphs on the same node set; the shared kernel
// (the constant vector) is projected out, so the returned eigenvectors are
// mean-free.
//
// This is the Phase-3 workhorse of CirSTAG (Algorithm 1, line 8): the
// eigenvectors weighted by √ζ embed the input manifold so that edge lengths
// approximate cubed distance-mapping distortions.
//
// Seeds are optional warm-start directions; nil seeds start the Krylov basis
// from rng alone. Seeds (typically prolongated coarse-level eigenvectors from
// a coarsening hierarchy) are consumed in order: the first usable seed
// becomes the Krylov start vector and later ones replace the random
// directions injected at breakdown restarts, before the iteration falls back
// to random vectors. Each consumed seed advances eig.generalized.seeded.
// Unusable seeds (wrong length, non-finite, or in the span of the current
// basis) are skipped.
func GeneralizedTopKSeeded(lx, ly *sparse.CSR, k int, seeds []mat.Vec, rng *rand.Rand, opts Options) []GeneralizedPair {
	n := lx.Rows
	if lx.Cols != n || ly.Rows != n || ly.Cols != n {
		panic(fmt.Sprintf("eig: GeneralizedTopKSeeded dims L_X %dx%d, L_Y %dx%d", lx.Rows, lx.Cols, ly.Rows, ly.Cols))
	}
	if k <= 0 {
		panic("eig: GeneralizedTopKSeeded k must be positive")
	}
	if k > n-1 {
		k = n - 1 // at most n-1 nontrivial pairs outside the shared kernel
	}
	if opts.MaxIter <= 0 {
		// Inexact inner solves inside a Krylov outer loop tolerate modest
		// accuracy, so the generalized iteration uses a tighter budget than
		// plain Lanczos.
		opts.MaxIter = 4 * k
		if opts.MaxIter < 36 {
			opts.MaxIter = 36
		}
	}
	opts = opts.withDefaults(n, k)
	if opts.InnerTol <= 0 {
		opts.InnerTol = 1e-6
	}
	// Fault-injection point: shared with plain Lanczos — tests shrink the
	// Krylov budget to simulate a non-converging generalized eigensolve.
	opts.MaxIter = faultinject.Int(faultinject.PointLanczosMaxIter, opts.MaxIter)
	// Loose, iteration-capped Laplacian solves: the kNN manifolds are badly
	// conditioned under 1/d² weights, and full 1e-8 solves would dominate
	// the whole pipeline (the outer Lanczos reorthogonalization corrects the
	// inexactness, and the breakdown threshold below scales with InnerTol so
	// solver noise is never mistaken for a genuine Krylov direction).
	solveY := solver.NewLaplacianFromCSR(ly, solver.Options{
		Tol:     opts.InnerTol,
		MaxIter: 1200 + 16*isqrt(n),
		Precond: solver.PrecondTree,
	})

	// The B-inner product <u,v>_B = uᵀ·L_Y·v appears in every
	// (re)orthogonalization step, so L_Y·qᵢ is cached per basis vector:
	// each dot against the basis then costs one plain inner product instead
	// of a sparse matrix-vector multiply.
	var q, lq []mat.Vec
	appendBasis := func(v mat.Vec) bool {
		lyv := ly.MulVec(v)
		nrm := mat.Dot(v, lyv)
		if nrm <= 1e-24 {
			return false
		}
		nrm = math.Sqrt(nrm)
		vv := v.Clone()
		mat.Scale(1/nrm, vv)
		mat.Scale(1/nrm, lyv)
		q = append(q, vv)
		lq = append(lq, lyv)
		return true
	}

	// nextStart yields the next candidate Krylov direction: remaining warm-
	// start seeds in order, then fresh random vectors. Either way the
	// candidate comes back mean-free; fromSeed tells restart logic whether a
	// rejection should try again (more seeds may remain) or give up (a
	// rejected random vector means the space is exhausted, as before).
	seedIdx := 0
	nextStart := func() (v mat.Vec, fromSeed bool) {
		for seedIdx < len(seeds) {
			s := seeds[seedIdx]
			seedIdx++
			if len(s) != n {
				continue
			}
			v = s.Clone()
			deflate(v)
			if i := v.FirstNonFinite(); i >= 0 {
				continue
			}
			genSeeded.Inc()
			return v, true
		}
		v = randomUnit(rng, n)
		deflate(v)
		return v, false
	}

	// Start vector: first usable seed when provided, else random; mean-free,
	// B-normalized.
	for {
		v, fromSeed := nextStart()
		if appendBasis(v) {
			break
		}
		if !fromSeed {
			return nil
		}
	}

	var alpha, beta mat.Vec
	scale := 1e-300 // running estimate of the operator's spectral scale
	for j := 0; j < opts.MaxIter; j++ {
		// w = L_Y⁺ (L_X q_j). On ErrNoConvergence the solver still returns
		// its best iterate, which is fine inside a Krylov outer loop.
		lxq := lx.MulVec(q[j])
		w, _ := solveY.Solve(lxq)
		genIters.Inc()
		deflate(w)
		aj := mat.Dot(w, lq[j])
		alpha = append(alpha, aj)
		if a := math.Abs(aj); a > scale {
			scale = a
		}
		mat.Axpy(-aj, q[j], w)
		if j > 0 {
			mat.Axpy(-beta[j-1], q[j-1], w)
		}
		// Full reorthogonalization in the B inner product (cached L_Y·qᵢ),
		// two-pass classical Gram-Schmidt sharded across the worker pool.
		orthogonalize(w, q, lq)
		if j+1 >= opts.MaxIter {
			break
		}
		lyw := ly.MulVec(w)
		bj2 := mat.Dot(w, lyw)
		bj := 0.0
		if bj2 > 0 {
			bj = math.Sqrt(bj2)
		}
		if scale > 0 {
			genResidual.Observe(bj / scale)
		}
		// Breakdown: the residual direction is dominated by Laplacian-solver
		// noise, so continuing would inject spurious Ritz values. Restart
		// with a fresh random direction, which is a legitimate new Krylov
		// seed (beta = 0 decouples the blocks).
		if bj < 50*opts.InnerTol*scale {
			genRestarts.Inc()
			restarted := false
			for {
				nv, fromSeed := nextStart()
				for pass := 0; pass < 2; pass++ {
					for i := range q {
						mat.Axpy(-mat.Dot(nv, lq[i]), q[i], nv)
					}
				}
				if appendBasis(nv) {
					restarted = true
					break
				}
				if !fromSeed {
					break
				}
			}
			if !restarted {
				break
			}
			beta = append(beta, 0)
			continue
		}
		if bj > scale {
			scale = bj
		}
		beta = append(beta, bj)
		nq := w.Clone()
		mat.Scale(1/bj, nq)
		mat.Scale(1/bj, lyw)
		q = append(q, nq)
		lq = append(lq, lyw)
	}

	m := len(alpha)
	genBasis.Set(float64(m))
	vals, vecs := mat.TridiagEig(alpha[:m], beta[:min(len(beta), m-1)])
	if k > m {
		k = m
	}
	out := make([]GeneralizedPair, k)
	// Each generalized Ritz pair assembles and B-normalizes independently;
	// fan out across the worker pool with a private scratch vector per pair.
	parallel.ForEach(k, 1, func(c int) {
		ii := m - 1 - c // descending
		x := make(mat.Vec, n)
		for j := 0; j < m; j++ {
			mat.Axpy(vecs.At(j, ii), q[j], x)
		}
		deflate(x)
		tmp := make(mat.Vec, n)
		dotB := func(u, v mat.Vec) float64 {
			ly.MulVecTo(tmp, v)
			return mat.Dot(u, tmp)
		}
		normalizeB(x, dotB)
		val := vals[ii]
		if val < 0 && val > -1e-10 {
			val = 0
		}
		out[c] = GeneralizedPair{Value: val, Vector: x}
	})
	return out
}

// deflate removes the global mean (projection against the constant vector).
func deflate(v mat.Vec) {
	m := mat.Mean(v)
	for i := range v {
		v[i] -= m
	}
}

func isqrt(n int) int {
	r := int(math.Sqrt(float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

func normB(v mat.Vec, dotB func(u, w mat.Vec) float64) float64 {
	s := dotB(v, v)
	if s <= 0 {
		return 0
	}
	return math.Sqrt(s)
}

func normalizeB(v mat.Vec, dotB func(u, w mat.Vec) float64) {
	n := normB(v, dotB)
	if n > 0 {
		mat.Scale(1/n, v)
	}
}
