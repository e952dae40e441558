package eig

import (
	"fmt"
	"math"
	"math/rand"

	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/solver"
	"cirstag/internal/sparse"
)

// Warm-started generalized eigensolve for incremental re-analysis. When a
// perturbation moved only a few manifold nodes, the generalized eigenvectors
// of the patched problem are a small rotation of the baseline's, so restarting
// the full Lanczos iteration from scratch (MaxIter ≈ 36 serial inner solves)
// wastes almost all of its budget rediscovering a subspace we already hold.
// GeneralizedTopKWarm instead runs block subspace iteration with a
// Rayleigh–Ritz extraction, seeded with the prior eigenvectors: each round
// applies L_Y⁺·L_X to the whole k-vector block through one blocked multi-RHS
// solve (the SpMV is streamed once per iteration across all right-hand sides)
// and stops as soon as the Ritz residuals certify the subspace. Near a
// converged seed that is one or two rounds — the incremental path's dominant
// cost drops from ~4k serial solves to ~2k blocked ones.
var (
	warmRuns      = obs.NewCounter("eig.warm.runs")
	warmRounds    = obs.NewCounter("eig.warm.rounds")
	warmResidual  = obs.NewHistogram("eig.warm.residual", obs.ExpBuckets(1e-10, 10, 12)...)
	warmFallbacks = obs.NewCounter("eig.warm.fallbacks")
)

// WarmOptions tunes GeneralizedTopKWarm. The zero value gives defaults tuned
// for the incremental patch path: a looser inner tolerance than the cold
// solve (the Rayleigh–Ritz projection averages solver noise out) and a
// residual target that keeps score rankings aligned with a cold recompute.
type WarmOptions struct {
	// ResidTol is the convergence target: the largest relative B-norm Ritz
	// residual ‖A·v − θ·v‖_B / θ over the top-k pairs. Default 0.05.
	ResidTol float64
	// MaxRounds caps the subspace-iteration rounds; each round costs one
	// blocked k-column Laplacian solve. Default 3.
	MaxRounds int
	// InnerTol is the relative-residual tolerance of the inner L_Y solves.
	// Default 1e-5.
	InnerTol float64
	// EnrichMaxIter caps the inner-solve iterations of the enrichment
	// columns (probe directions beyond the first k). Probes only need to
	// inject the right subspace, not a solved vector — the Rayleigh–Ritz
	// residual check still gates convergence of the returned pairs — so a
	// rough pseudo-inverse application is enough. Default 48.
	EnrichMaxIter int
}

func (o WarmOptions) withDefaults() WarmOptions {
	if o.ResidTol <= 0 {
		o.ResidTol = 0.05
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 3
	}
	if o.InnerTol <= 0 {
		o.InnerTol = 1e-5
	}
	if o.EnrichMaxIter <= 0 {
		o.EnrichMaxIter = 48
	}
	return o
}

// GeneralizedTopKWarm computes the k largest generalized eigenpairs of
// L_X·v = ζ·L_Y·v like GeneralizedTopKSeeded, but warm-started from a prior
// solve's eigenvectors instead of growing a Krylov basis from noise. It is an
// approximation refined to WarmOptions.ResidTol, not a bit-identical
// replacement for the cold solve — callers that need bit-identity to a fresh
// run (full rebuilds, cache-warm paths) must keep using
// GeneralizedTopKSeeded.
// Unusable warm vectors (wrong length, non-finite, dependent) are skipped and
// replaced with random directions, so a degenerate warm set degrades to plain
// subspace iteration rather than failing.
func GeneralizedTopKWarm(lx, ly *sparse.CSR, k int, warm []mat.Vec, rng *rand.Rand, opts WarmOptions) []GeneralizedPair {
	n := lx.Rows
	if lx.Cols != n || ly.Rows != n || ly.Cols != n {
		panic(fmt.Sprintf("eig: GeneralizedTopKWarm dims L_X %dx%d, L_Y %dx%d", lx.Rows, lx.Cols, ly.Rows, ly.Cols))
	}
	if k <= 0 {
		panic("eig: GeneralizedTopKWarm k must be positive")
	}
	if k > n-1 {
		k = n - 1
	}
	opts = opts.withDefaults()
	warmRuns.Inc()
	solveY := solver.NewLaplacianFromCSR(ly, solver.Options{
		Tol:     opts.InnerTol,
		MaxIter: 1200 + 16*isqrt(n),
		Precond: solver.PrecondTree,
	})
	// Budget-capped sibling for the enrichment columns; shares the L_Y
	// factorization-free setup but stops after EnrichMaxIter iterations.
	solveYEnrich := solver.NewLaplacianFromCSR(ly, solver.Options{
		Tol:     opts.InnerTol,
		MaxIter: opts.EnrichMaxIter,
		Precond: solver.PrecondTree,
	})

	// B-orthonormal block X (basis[j]) with cached L_Y·basis[j] so every
	// B-inner product is a plain dot.
	var basis, lbasis []mat.Vec
	addVec := func(v mat.Vec) bool {
		deflate(v)
		if v.FirstNonFinite() >= 0 {
			return false
		}
		for pass := 0; pass < 2; pass++ {
			for i := range basis {
				mat.Axpy(-mat.Dot(v, lbasis[i]), basis[i], v)
			}
		}
		lyv := ly.MulVec(v)
		nrm := mat.Dot(v, lyv)
		if nrm <= 1e-24 {
			return false
		}
		nrm = math.Sqrt(nrm)
		mat.Scale(1/nrm, v)
		mat.Scale(1/nrm, lyv)
		basis = append(basis, v)
		lbasis = append(lbasis, lyv)
		return true
	}
	// The block may start wider than k: callers append probe directions for
	// regions the prior eigenvectors cannot span (e.g. spikes at perturbed
	// nodes, whose new localized eigenvectors a stale subspace misses
	// entirely). Capped at 2k so a huge warm set cannot blow up the blocked
	// solve width.
	maxBasis := 2 * k
	for _, w := range warm {
		if len(basis) >= maxBasis || len(w) != n {
			continue
		}
		addVec(w.Clone())
	}
	if len(basis) < k {
		warmFallbacks.Inc()
	}
	for tries := 0; len(basis) < k && tries < 4*k; tries++ {
		addVec(randomUnit(rng, n))
	}
	m := len(basis)
	if m == 0 {
		return nil
	}

	var out []GeneralizedPair
	for round := 0; round < opts.MaxRounds; round++ {
		warmRounds.Inc()
		// AX = L_Y⁺·L_X·X in one blocked multi-RHS solve. Non-convergence
		// returns the best iterate per column, which the Rayleigh–Ritz
		// projection tolerates exactly as the cold Krylov loop does. Each
		// column is warm-started at θ_j·x_j with θ_j the Rayleigh quotient
		// x_jᵀ·L_X·x_j (the basis is B-orthonormal): for a converged seed
		// A·x = θ·x exactly, so near a fixed point the inner PCG starts below
		// tolerance and the blocked solve costs a residual check, not a solve.
		axCols := make([]mat.Vec, m)
		solveCols := func(s *solver.Laplacian, lo, hi int) {
			if hi <= lo {
				return
			}
			w := hi - lo
			rhs := mat.NewDense(n, w)
			guess := mat.NewDense(n, w)
			for j := lo; j < hi; j++ {
				lxv := lx.MulVec(basis[j])
				rhs.SetCol(j-lo, lxv)
				theta := mat.Dot(basis[j], lxv)
				for i := 0; i < n; i++ {
					guess.Set(i, j-lo, theta*basis[j][i])
				}
			}
			ax, _ := s.SolveBlockGuess(rhs, guess)
			for j := lo; j < hi; j++ {
				c := ax.Col(j - lo)
				deflate(c)
				axCols[j] = c
			}
		}
		// The first k columns carry the (near-)converged pairs and are solved
		// to InnerTol; the rest are enrichment probes solved under the capped
		// budget. Both start from the θ·x Rayleigh-quotient guess.
		primary := k
		if primary > m {
			primary = m
		}
		solveCols(solveY, 0, primary)
		solveCols(solveYEnrich, primary, m)

		// Rayleigh–Ritz on span(X): T = Xᵀ·L_Y·(A·X), symmetrized against
		// inner-solve noise (A is B-self-adjoint in exact arithmetic).
		t := mat.NewDense(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j <= i; j++ {
				tij := 0.5 * (mat.Dot(lbasis[i], axCols[j]) + mat.Dot(lbasis[j], axCols[i]))
				t.Set(i, j, tij)
				t.Set(j, i, tij)
			}
		}
		vals, vecs := mat.SymEig(t) // ascending

		kk := k
		if kk > m {
			kk = m
		}
		out = make([]GeneralizedPair, kk)
		ritzAV := make([]mat.Vec, kk)
		maxResid := 0.0
		tmp := make(mat.Vec, n)
		dotB := func(u, v mat.Vec) float64 {
			ly.MulVecTo(tmp, v)
			return mat.Dot(u, tmp)
		}
		for c := 0; c < kk; c++ {
			ii := m - 1 - c // descending Ritz values
			x := make(mat.Vec, n)
			av := make(mat.Vec, n)
			for j := 0; j < m; j++ {
				w := vecs.At(j, ii)
				mat.Axpy(w, basis[j], x)
				mat.Axpy(w, axCols[j], av)
			}
			deflate(x)
			val := vals[ii]
			// Relative B-norm residual of the Ritz pair; AV is already in
			// hand, so the check costs one SpMV per pair.
			r := av.Clone()
			mat.Axpy(-val, x, r)
			resid := normB(r, dotB)
			if scale := math.Abs(val); scale > 1e-300 {
				resid /= scale
			}
			warmResidual.Observe(resid)
			if resid > maxResid {
				maxResid = resid
			}
			normalizeB(x, dotB)
			if val < 0 && val > -1e-10 {
				val = 0
			}
			out[c] = GeneralizedPair{Value: val, Vector: x}
			ritzAV[c] = av
		}
		if maxResid <= opts.ResidTol || round+1 >= opts.MaxRounds {
			break
		}
		// Not converged: one subspace-iteration step. The next block is the
		// B-orthonormalization of A·V in descending Ritz order — the power
		// step that contracts components outside the dominant eigenspace —
		// topped up with random directions if columns collapsed.
		basis, lbasis = basis[:0], lbasis[:0]
		for _, av := range ritzAV {
			addVec(av)
		}
		for tries := 0; len(basis) < k && tries < 4*k; tries++ {
			addVec(randomUnit(rng, n))
		}
		m = len(basis)
		if m == 0 {
			return out
		}
	}
	return out
}
