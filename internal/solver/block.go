package solver

import (
	"fmt"
	"math"

	"cirstag/internal/faultinject"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/sparse"
)

// Blocked multi-RHS PCG. PCGBlockGuess runs the exact per-column recurrence of
// PCG (same scalars, same floating-point operation order), but fuses the
// SpMV across right-hand sides so the sparse matrix is streamed once per
// iteration instead of once per column, and shares one preconditioner across
// the block. Every column's solution, iteration count, and residual are
// bit-identical to a standalone PCG call on that column, for any worker
// count — the block path is a pure performance transformation.
var (
	blockSolves = obs.NewCounter("solver.block.solves")
	blockRHS    = obs.NewHistogram("solver.block.rhs", obs.ExpBuckets(1, 2, 12)...)
)

// PrecondBlockTo applies the inverse diagonal to every selected column in a
// single fused row pass (elementwise, so trivially bit-identical per column).
func (p *JacobiPrec) PrecondBlockTo(z, r *mat.Dense, cols []int) {
	w := r.Cols
	parallel.For(r.Rows, parallel.Grain(len(cols)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d := p.invDiag[i]
			zrow := z.Data[i*w : (i+1)*w]
			rrow := r.Data[i*w : (i+1)*w]
			for _, j := range cols {
				zrow[j] = d * rrow[j]
			}
		}
	})
}

// colGroup is the width of the column groups that the block reductions,
// copies and tree solves work on: each group is one task on the worker pool
// and one row-major pass over the block, so a row's group entries share
// cache lines instead of each column striding through memory on its own.
// The width is a constant, so group boundaries depend only on len(cols),
// never on the worker count.
const colGroup = 8

// forColGroups runs fn on consecutive groups of at most colGroup entries of
// cols, one group per task on the worker pool.
func forColGroups(cols []int, fn func(g []int)) {
	parallel.For(len(cols), colGroup, func(lo, hi int) { fn(cols[lo:hi]) })
}

// colNorms sets out[j] to mat.Norm2 of column j of m for every j in cols:
// the same overflow-guarded scaling in the same element order (ascending
// row), so each result is bitwise equal to Norm2 of the extracted column.
func colNorms(out []float64, m *mat.Dense, cols []int) {
	w := m.Cols
	forColGroups(cols, func(g []int) {
		var scale, ssq [colGroup]float64
		for c := range g {
			ssq[c] = 1
		}
		for i := 0; i < m.Rows; i++ {
			row := m.Data[i*w : (i+1)*w]
			for c, j := range g {
				x := row[j]
				if x == 0 {
					continue
				}
				ax := math.Abs(x)
				if scale[c] < ax {
					r := scale[c] / ax
					ssq[c] = 1 + ssq[c]*r*r
					scale[c] = ax
				} else {
					r := ax / scale[c]
					ssq[c] += r * r
				}
			}
		}
		for c, j := range g {
			out[j] = scale[c] * math.Sqrt(ssq[c])
		}
	})
}

// colDots sets out[j] to mat.Dot of column j of a and b for every j in cols,
// summing in Dot's ascending row order.
func colDots(out []float64, a, b *mat.Dense, cols []int) {
	w := a.Cols
	forColGroups(cols, func(g []int) {
		var s [colGroup]float64
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*w : (i+1)*w]
			brow := b.Data[i*w : (i+1)*w]
			for c, j := range g {
				s[c] += arow[j] * brow[j]
			}
		}
		for c, j := range g {
			out[j] = s[c]
		}
	})
}

// copyCols copies the selected columns of src into dst (same shape).
func copyCols(dst, src *mat.Dense, cols []int) {
	if len(cols) == 0 {
		return
	}
	w := src.Cols
	parallel.For(src.Rows, parallel.Grain(len(cols)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dst.Data[i*w : (i+1)*w]
			srow := src.Data[i*w : (i+1)*w]
			for _, j := range cols {
				drow[j] = srow[j]
			}
		}
	})
}

// colStatus tracks one right-hand side through the blocked iteration.
type colStatus uint8

const (
	colActive colStatus = iota
	colDone
)

// PCGBlockGuess solves A·X = B column by column with a shared preconditioner
// and SpMV fused across the active columns, starting from the per-column
// initial guess x0 (nil means the zero guess). With a nil guess, per column
// it returns exactly what PCG would: the same solution bits, iteration count,
// residual, and ErrNoConvergence behaviour (errs[j] is nil or
// ErrNoConvergence). Columns converge (or break down) independently; finished
// columns drop out of the fused kernels. As in scalar PCG, convergence is
// still measured against ‖b_j‖ — a guess whose residual is already below
// Tol·‖b_j‖ converges in zero iterations, which is what makes warm-started
// correction solves (eig.GeneralizedTopKWarm) nearly free near a fixed point.
func PCGBlockGuess(a *sparse.CSR, m Preconditioner, b, x0 *mat.Dense, opts Options) (*mat.Dense, []Result, []error) {
	n := a.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("solver: PCGBlockGuess rhs rows %d, operator dim %d", b.Rows, n))
	}
	k := b.Cols
	if x0 != nil && (x0.Rows != n || x0.Cols != k) {
		panic(fmt.Sprintf("solver: PCGBlockGuess guess %dx%d, want %dx%d", x0.Rows, x0.Cols, n, k))
	}
	opts = opts.withDefaults(n)
	// Same fault-injection point as the scalar path, so budget-capping tests
	// exercise the block solver identically.
	opts.MaxIter = faultinject.Int(faultinject.PointPCGMaxIter, opts.MaxIter)

	all := make([]int, k)
	for j := range all {
		all[j] = j
	}
	x := mat.NewDense(n, k)
	var r *mat.Dense
	if x0 == nil {
		r = b.Clone() // x₀ = 0 ⇒ r = b exactly
	} else {
		copy(x.Data, x0.Data)
		r = mat.NewDense(n, k)
		a.MulDenseColsTo(r, x, all)
		for i, bv := range b.Data {
			r.Data[i] = bv - r.Data[i]
		}
	}
	z := mat.NewDense(n, k)
	p := mat.NewDense(n, k)
	ap := mat.NewDense(n, k)
	best := x.Clone() // best = x₀, as in PCG

	results := make([]Result, k)
	errs := make([]error, k)
	status := make([]colStatus, k)
	bnorm := make([]float64, k)
	rz := make([]float64, k)
	rzNew := make([]float64, k)
	bestRes := make([]float64, k)
	resNow := make([]float64, k)
	pap := make([]float64, k)
	alpha := make([]float64, k)
	beta := make([]float64, k)

	colNorms(bnorm, b, all)
	act := make([]int, 0, k)
	for _, j := range all {
		if bnorm[j] == 0 {
			status[j] = colDone
			results[j] = Result{Iterations: 0, Residual: 0}
			continue
		}
		act = append(act, j)
	}
	if len(act) > 0 {
		m.PrecondBlockTo(z, r, act)
		copyCols(p, z, act)
		colDots(rz, r, z, act)
		colNorms(bestRes, r, act)
		for _, j := range act {
			bestRes[j] /= bnorm[j]
		}
	}

	compact := func() {
		out := act[:0]
		for _, j := range act {
			if status[j] == colActive {
				out = append(out, j)
			}
		}
		act = out
	}

	// Columns whose best iterate or solution must be copied this round.
	sel := make([]int, 0, k)
	var it int
	for it = 0; it < opts.MaxIter && len(act) > 0; it++ {
		// Residual check (top of the scalar loop).
		colNorms(resNow, r, act)
		sel = sel[:0]
		changed := false
		for _, j := range act {
			res := resNow[j] / bnorm[j]
			if res < bestRes[j] {
				bestRes[j] = res
				sel = append(sel, j)
			}
			if res <= opts.Tol {
				// Converged: scalar PCG returns the current iterate x.
				status[j] = colDone
				results[j] = Result{Iterations: it, Residual: res}
				changed = true
			}
		}
		copyCols(best, x, sel)
		if changed {
			compact()
			if len(act) == 0 {
				break
			}
		}

		// ap = A·p, fused across the active columns.
		a.MulDenseColsTo(ap, p, act)
		colDots(pap, p, ap, act)
		sel = sel[:0]
		for _, j := range act {
			if pap[j] <= 0 || math.IsNaN(pap[j]) {
				// Breakdown: scalar PCG returns the best iterate so far.
				sel = append(sel, j)
				status[j] = colDone
				results[j] = Result{Iterations: it, Residual: bestRes[j]}
				errs[j] = ErrNoConvergence
				continue
			}
			alpha[j] = rz[j] / pap[j]
		}
		if len(sel) > 0 {
			copyCols(x, best, sel)
			compact()
			if len(act) == 0 {
				break
			}
		}

		// x += α·p, r −= α·ap: one fused row pass (per-row private writes).
		parallel.For(n, parallel.Grain(2*len(act)), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				xrow := x.Data[i*k : (i+1)*k]
				rrow := r.Data[i*k : (i+1)*k]
				prow := p.Data[i*k : (i+1)*k]
				aprow := ap.Data[i*k : (i+1)*k]
				for _, j := range act {
					xrow[j] += alpha[j] * prow[j]
					rrow[j] -= alpha[j] * aprow[j]
				}
			}
		})

		m.PrecondBlockTo(z, r, act)
		colDots(rzNew, r, z, act)
		for _, j := range act {
			beta[j] = rzNew[j] / rz[j]
			rz[j] = rzNew[j]
		}
		// p = z + β·p, fused.
		parallel.For(n, parallel.Grain(len(act)), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				prow := p.Data[i*k : (i+1)*k]
				zrow := z.Data[i*k : (i+1)*k]
				for _, j := range act {
					prow[j] = zrow[j] + beta[j]*prow[j]
				}
			}
		})
	}

	// Budget exhausted: final residual check, return the best iterate. A
	// column whose current iterate is its best already holds it in x.
	colNorms(resNow, r, act)
	sel = sel[:0]
	for _, j := range act {
		if res := resNow[j] / bnorm[j]; res < bestRes[j] {
			bestRes[j] = res
		} else {
			sel = append(sel, j)
		}
		results[j] = Result{Iterations: opts.MaxIter, Residual: bestRes[j]}
		if bestRes[j] > opts.Tol {
			errs[j] = ErrNoConvergence
		}
	}
	copyCols(x, best, sel)
	return x, results, errs
}

// maxBlockCols caps the width of one PCGBlockGuess tile inside
// SolveBlockGuess: six n×w working blocks live at once, so an unbounded width
// would make a wide sketch build (hundreds of RHS on a 10⁵-node graph)
// allocate gigabytes. Tiles are solved independently, so tiling never changes
// any bit.
const maxBlockCols = 64

// SolveBlockGuess computes L⁺ applied to every column of b (n×k) with the
// blocked PCG, sharing the preconditioner and fusing the SpMV across columns,
// starting from the per-column initial guess x0. With a nil (zero) guess each
// column's solution is bit-identical to Solve on that column, for any worker
// count. Guess columns are projected into the solution subspace before the
// iteration, so any iterate — including a rough warm start — is a valid
// starting point. The returned error is the first per-column error in column
// order.
func (s *Laplacian) SolveBlockGuess(b, x0 *mat.Dense) (*mat.Dense, error) {
	if b.Rows != s.L.Rows {
		panic(fmt.Sprintf("solver: SolveBlockGuess rows %d vs dim %d", b.Rows, s.L.Rows))
	}
	k := b.Cols
	if x0 != nil && (x0.Rows != b.Rows || x0.Cols != k) {
		panic(fmt.Sprintf("solver: SolveBlockGuess guess %dx%d, want %dx%d", x0.Rows, x0.Cols, b.Rows, k))
	}
	out := mat.NewDense(b.Rows, k)
	blockSolves.Inc()
	blockRHS.Observe(float64(k))
	var firstErr error
	for lo := 0; lo < k; lo += maxBlockCols {
		hi := lo + maxBlockCols
		if hi > k {
			hi = k
		}
		tile := extractCols(b, lo, hi)
		for j := 0; j < tile.Cols; j++ {
			s.projectCol(tile, j)
		}
		var guess *mat.Dense
		if x0 != nil {
			guess = extractCols(x0, lo, hi)
			for j := 0; j < guess.Cols; j++ {
				s.projectCol(guess, j)
			}
		}
		x, results, errs := PCGBlockGuess(s.L, s.prec, tile, guess, s.opts)
		for j := 0; j < tile.Cols; j++ {
			lapSolves.Inc()
			pcgIterations.Observe(float64(results[j].Iterations))
			pcgResidual.Observe(results[j].Residual)
			if errs[j] != nil {
				lapNoConvergence.Inc()
				if firstErr == nil {
					firstErr = errs[j]
				}
			} else {
				// Solve projects only converged solutions; errored columns
				// return the raw best iterate, and so does the block path.
				s.projectCol(x, j)
			}
		}
		// Copy the tile's solutions into the output block.
		w := hi - lo
		for i := 0; i < b.Rows; i++ {
			copy(out.Data[i*k+lo:i*k+hi], x.Data[i*w:(i+1)*w])
		}
	}
	return out, firstErr
}

// extractCols copies columns [lo,hi) of m into a new contiguous block.
func extractCols(m *mat.Dense, lo, hi int) *mat.Dense {
	w := hi - lo
	out := mat.NewDense(m.Rows, w)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*w:(i+1)*w], m.Data[i*m.Cols+lo:i*m.Cols+hi])
	}
	return out
}

// projectCol removes the per-component mean of column j of m in place —
// project on a strided column, with the identical accumulation order
// (ascending row index), so the result matches the vector path bitwise.
func (s *Laplacian) projectCol(m *mat.Dense, j int) {
	nc := len(s.sizes)
	sums := make([]float64, nc)
	w := m.Cols
	for i := 0; i < m.Rows; i++ {
		sums[s.comp[i]] += m.Data[i*w+j]
	}
	for c := range sums {
		sums[c] /= float64(s.sizes[c])
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*w+j] -= sums[s.comp[i]]
	}
}
