// Package eig provides the sparse eigensolvers behind the CirSTAG pipeline:
// a Lanczos method with full reorthogonalization for extremal eigenpairs of
// symmetric operators (used for the spectral embedding of the normalized
// Laplacian), and a generalized Lanczos iteration in the L_Y inner product
// for the top eigenpairs of L_Y⁺·L_X (Phase 3 of CirSTAG).
package eig

import (
	"fmt"
	"math"
	"math/rand"

	"cirstag/internal/cache"
	"cirstag/internal/cirerr"
	"cirstag/internal/faultinject"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/solver"
	"cirstag/internal/sparse"
)

// Convergence metrics of the plain Lanczos iteration. Residual observations
// are the per-step off-diagonal β_j normalized by the running spectral-scale
// estimate — the quantity the breakdown test compares against — so the
// histogram shows how close each step came to finding an invariant subspace.
var (
	lanczosIters    = obs.NewCounter("eig.lanczos.iterations")
	lanczosRestarts = obs.NewCounter("eig.lanczos.restarts")
	lanczosResidual = obs.NewHistogram("eig.lanczos.residual", obs.ExpBuckets(1e-14, 10, 16)...)
)

// Which selects the end of the spectrum a Lanczos call should target.
type Which int

const (
	// Smallest requests the algebraically smallest eigenvalues.
	Smallest Which = iota
	// Largest requests the algebraically largest eigenvalues.
	Largest
)

// Options tunes the Lanczos iterations.
type Options struct {
	// MaxIter caps the Krylov dimension. Default: min(n, max(6k, 80)).
	MaxIter int
	// Tol is the Ritz-pair residual target relative to the spectral radius
	// estimate. Default 1e-8.
	Tol float64
	// InnerTol is the relative-residual tolerance of the Laplacian solves
	// inside GeneralizedTopKSeeded (ignored by plain Lanczos). Default 1e-6.
	InnerTol float64
}

// AddToKey mixes every result-affecting solver option into an artifact-cache
// key, so cached spectra are invalidated when tolerances or iteration caps
// change. New result-affecting fields must be added here.
func (o Options) AddToKey(k *cache.Key) *cache.Key {
	return k.Int(int64(o.MaxIter)).Float(o.Tol).Float(o.InnerTol)
}

func (o Options) withDefaults(n, k int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 6 * k
		if o.MaxIter < 80 {
			o.MaxIter = 80
		}
	}
	if o.MaxIter > n {
		o.MaxIter = n
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	return o
}

// Lanczos computes k extremal eigenpairs of the symmetric operator a.
// Eigenvalues are returned sorted ascending when which == Smallest and
// descending when which == Largest; the i-th column of the returned matrix is
// the eigenvector for the i-th returned eigenvalue. Eigenvectors have unit
// Euclidean norm. rng seeds the start vector, making runs reproducible.
//
// Full reorthogonalization is used, so memory is O(n·iters); this is the
// right trade-off for the narrow k (tens) CirSTAG needs.
func Lanczos(a solver.Op, k int, which Which, rng *rand.Rand, opts Options) (mat.Vec, *mat.Dense) {
	n := a.Dim()
	if k <= 0 || k > n {
		panic(fmt.Sprintf("eig: Lanczos k=%d out of range for n=%d", k, n))
	}
	opts = opts.withDefaults(n, k)
	if opts.MaxIter < k {
		opts.MaxIter = k
	}
	// Fault-injection point: tests shrink the Krylov budget here to simulate
	// a non-converging eigensolve (no-op in production).
	opts.MaxIter = faultinject.Int(faultinject.PointLanczosMaxIter, opts.MaxIter)

	q := make([]mat.Vec, 0, opts.MaxIter)
	alpha := make(mat.Vec, 0, opts.MaxIter)
	beta := make(mat.Vec, 0, opts.MaxIter) // beta[j] links q[j] and q[j+1]

	v := randomUnit(rng, n)
	q = append(q, v)
	w := make(mat.Vec, n)
	scale := 1e-300 // running spectral-scale estimate for breakdown detection
	for j := 0; j < opts.MaxIter; j++ {
		a.ApplyTo(w, q[j])
		aj := mat.Dot(w, q[j])
		alpha = append(alpha, aj)
		if ab := math.Abs(aj); ab > scale {
			scale = ab
		}
		// w -= alpha_j q_j + beta_{j-1} q_{j-1}, then full reorthogonalization
		// (two-pass classical Gram-Schmidt; parallel across the basis).
		mat.Axpy(-aj, q[j], w)
		if j > 0 {
			mat.Axpy(-beta[j-1], q[j-1], w)
		}
		orthogonalize(w, q, q)
		bj := mat.Norm2(w)
		lanczosIters.Inc()
		if scale > 0 {
			lanczosResidual.Observe(bj / scale)
		}
		if j+1 >= opts.MaxIter {
			break
		}
		if bj < 1e-10*scale {
			// Invariant subspace found: the residual is round-off noise.
			// Restart with a fresh random direction orthogonal to the current
			// basis so the decomposition keeps growing (beta = 0 decouples
			// the blocks of T).
			lanczosRestarts.Inc()
			nv := randomUnit(rng, n)
			for pass := 0; pass < 2; pass++ {
				for _, qi := range q {
					mat.Axpy(-mat.Dot(nv, qi), qi, nv)
				}
			}
			if mat.Normalize(nv) == 0 {
				break
			}
			beta = append(beta, 0)
			q = append(q, nv)
			w = make(mat.Vec, n)
			continue
		}
		if bj > scale {
			scale = bj
		}
		beta = append(beta, bj)
		nq := w.Clone()
		mat.Scale(1/bj, nq)
		q = append(q, nq)
	}

	m := len(alpha)
	if m < k {
		// The Krylov basis collapsed below the requested subspace dimension
		// (repeated breakdown restarts, or an iteration cap under k). There
		// are not k Ritz pairs to return, and silently padding would hand
		// callers a wrong-rank basis; throw a typed error for the public
		// pipeline boundary (cirerr.RecoverTo) to surface as ErrNoConverge.
		panic(cirerr.New("eig.lanczos", cirerr.ErrNoConverge,
			"Krylov basis dimension %d below requested k=%d (budget %d iterations)", m, k, opts.MaxIter))
	}
	vals, vecs := mat.TridiagEig(alpha[:m], beta[:min(len(beta), m-1)])
	// Select the requested end of the spectrum.
	idx := make([]int, k)
	if which == Smallest {
		for i := 0; i < k; i++ {
			idx[i] = i
		}
	} else {
		for i := 0; i < k; i++ {
			idx[i] = m - 1 - i
		}
	}
	outVals := make(mat.Vec, k)
	outVecs := mat.NewDense(n, k)
	// Each Ritz vector is an independent combination of the basis; assemble
	// them across the worker pool (disjoint output columns).
	parallel.ForEach(k, 1, func(c int) {
		ii := idx[c]
		outVals[c] = vals[ii]
		// Ritz vector: x = Q y.
		x := make(mat.Vec, n)
		for j := 0; j < m; j++ {
			mat.Axpy(vecs.At(j, ii), q[j], x)
		}
		mat.Normalize(x)
		outVecs.SetCol(c, x)
	})
	return outVals, outVecs
}

// SmallestNormalizedLaplacian returns the k smallest eigenpairs of the
// normalized Laplacian lnorm (eigenvalues in [0, 2]). To accelerate
// convergence of the small end it runs Lanczos on the shifted operator
// 2I − L_norm (whose largest eigenvalues correspond to L_norm's smallest)
// and maps the spectrum back.
func SmallestNormalizedLaplacian(lnorm *sparse.CSR, k int, rng *rand.Rand, opts Options) (mat.Vec, *mat.Dense) {
	shifted := shiftOp{m: lnorm, shift: 2}
	vals, vecs := Lanczos(shifted, k, Largest, rng, opts)
	out := make(mat.Vec, k)
	for i, v := range vals {
		lam := 2 - v
		if lam < 0 && lam > -1e-10 {
			lam = 0
		}
		out[i] = lam
	}
	return out, vecs
}

// shiftOp applies x ↦ shift·x − M·x.
type shiftOp struct {
	m     *sparse.CSR
	shift float64
}

func (o shiftOp) ApplyTo(y, x mat.Vec) {
	o.m.MulVecTo(y, x)
	for i := range y {
		y[i] = o.shift*x[i] - y[i]
	}
}

func (o shiftOp) Dim() int { return o.m.Rows }

func randomUnit(rng *rand.Rand, n int) mat.Vec {
	v := make(mat.Vec, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if mat.Normalize(v) == 0 {
		v[0] = 1
	}
	return v
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
