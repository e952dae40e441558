package solver

import (
	"fmt"
	"math"

	"cirstag/internal/faultinject"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
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

// BlockOp is an optional Op extension for operators that can apply
// themselves to several vectors in one fused pass. PCGBlockGuess uses it when
// available and falls back to per-column ApplyTo otherwise.
type BlockOp interface {
	Op
	// ApplyBlockTo computes y[:,j] = A·x[:,j] for the selected columns.
	// Each selected column must equal ApplyTo on that column bitwise.
	ApplyBlockTo(y, x *mat.Dense, cols []int)
}

func (o csrOp) ApplyBlockTo(y, x *mat.Dense, cols []int) { o.m.MulDenseColsTo(y, x, cols) }

// BlockPreconditioner is an optional Preconditioner extension for
// preconditioners whose application is safe to fuse or run concurrently
// across columns. TreePrec and JacobiPrec implement it; unknown
// preconditioners are applied serially column by column.
type BlockPreconditioner interface {
	Preconditioner
	// PrecondBlockTo computes z[:,j] = M⁻¹·r[:,j] for the selected columns,
	// bitwise equal to PrecondTo per column.
	PrecondBlockTo(z, r *mat.Dense, cols []int)
}

// PrecondBlockTo applies the inverse diagonal to every selected column in a
// single fused row pass (elementwise, so trivially bit-identical per column).
func (p *JacobiPrec) PrecondBlockTo(z, r *mat.Dense, cols []int) {
	w := r.Cols
	parallel.For(r.Rows, 0, func(lo, hi int) {
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

// PrecondBlockTo runs the two-pass tree solve on each selected column
// concurrently: PrecondTo allocates its own per-call scratch, so per-column
// applications are independent and bit-identical to the serial path.
func (t *TreePrec) PrecondBlockTo(z, r *mat.Dense, cols []int) {
	n := t.n
	parallel.ForEach(len(cols), 1, func(c int) {
		j := cols[c]
		rj := make(mat.Vec, n)
		zj := make(mat.Vec, n)
		copyColOut(rj, r, j)
		t.PrecondTo(zj, rj)
		copyColIn(z, j, zj)
	})
}

// PrecondBlockTo copies the selected columns (identity preconditioning).
func (IdentityPrec) PrecondBlockTo(z, r *mat.Dense, cols []int) {
	w := r.Cols
	for i := 0; i < r.Rows; i++ {
		for _, j := range cols {
			z.Data[i*w+j] = r.Data[i*w+j]
		}
	}
}

func precondBlock(m Preconditioner, z, r *mat.Dense, cols []int) {
	if bm, ok := m.(BlockPreconditioner); ok {
		bm.PrecondBlockTo(z, r, cols)
		return
	}
	// Unknown preconditioner: not necessarily safe to apply concurrently.
	n := r.Rows
	rj := make(mat.Vec, n)
	zj := make(mat.Vec, n)
	for _, j := range cols {
		copyColOut(rj, r, j)
		m.PrecondTo(zj, rj)
		copyColIn(z, j, zj)
	}
}

func applyBlock(a Op, y, x *mat.Dense, cols []int) {
	if ba, ok := a.(BlockOp); ok {
		ba.ApplyBlockTo(y, x, cols)
		return
	}
	n := a.Dim()
	xj := make(mat.Vec, n)
	yj := make(mat.Vec, n)
	for _, j := range cols {
		copyColOut(xj, x, j)
		a.ApplyTo(yj, xj)
		copyColIn(y, j, yj)
	}
}

func copyColOut(dst mat.Vec, m *mat.Dense, j int) {
	w := m.Cols
	for i := range dst {
		dst[i] = m.Data[i*w+j]
	}
}

func copyColIn(m *mat.Dense, j int, src mat.Vec) {
	w := m.Cols
	for i := range src {
		m.Data[i*w+j] = src[i]
	}
}

// colNorm2 mirrors mat.Norm2 on column j of m: the same overflow-guarded
// scaling loop in the same element order, so the result is bitwise equal to
// Norm2 of the extracted column.
func colNorm2(m *mat.Dense, j int) float64 {
	var scale, ssq float64
	ssq = 1
	w := m.Cols
	for i := 0; i < m.Rows; i++ {
		x := m.Data[i*w+j]
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// colDot mirrors mat.Dot on column j of a and b (ascending row order).
func colDot(a, b *mat.Dense, j int) float64 {
	var s float64
	w := a.Cols
	for i := 0; i < a.Rows; i++ {
		s += a.Data[i*w+j] * b.Data[i*w+j]
	}
	return s
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
func PCGBlockGuess(a Op, m Preconditioner, b, x0 *mat.Dense, opts Options) (*mat.Dense, []Result, []error) {
	n := a.Dim()
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

	x := mat.NewDense(n, k)
	var r *mat.Dense
	if x0 == nil {
		r = b.Clone() // x₀ = 0 ⇒ r = b exactly
	} else {
		copy(x.Data, x0.Data)
		r = mat.NewDense(n, k)
		all := make([]int, k)
		for j := range all {
			all[j] = j
		}
		applyBlock(a, r, x, all)
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
	bestRes := make([]float64, k)
	resNow := make([]float64, k)
	pap := make([]float64, k)
	alpha := make([]float64, k)
	beta := make([]float64, k)

	act := make([]int, 0, k)
	for j := 0; j < k; j++ {
		bnorm[j] = colNorm2(b, j)
		if bnorm[j] == 0 {
			status[j] = colDone
			results[j] = Result{Iterations: 0, Residual: 0}
			continue
		}
		act = append(act, j)
	}
	if len(act) > 0 {
		precondBlock(m, z, r, act)
		parallel.ForEach(len(act), 1, func(c int) {
			j := act[c]
			copyPColumn(p, z, j) // p = z
			rz[j] = colDot(r, z, j)
			bestRes[j] = colNorm2(r, j) / bnorm[j]
		})
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

	var it int
	for it = 0; it < opts.MaxIter && len(act) > 0; it++ {
		// Residual check (top of the scalar loop).
		parallel.ForEach(len(act), 1, func(c int) {
			j := act[c]
			resNow[c] = colNorm2(r, j) / bnorm[j]
		})
		changed := false
		for c, j := range act {
			res := resNow[c]
			if res < bestRes[j] {
				bestRes[j] = res
				copyColumn(best, x, j)
			}
			if res <= opts.Tol {
				// Converged: scalar PCG returns the current iterate x.
				status[j] = colDone
				results[j] = Result{Iterations: it, Residual: res}
				changed = true
			}
		}
		if changed {
			compact()
			if len(act) == 0 {
				break
			}
		}

		// ap = A·p, fused across the active columns.
		applyBlock(a, ap, p, act)
		parallel.ForEach(len(act), 1, func(c int) {
			j := act[c]
			pap[j] = colDot(p, ap, j)
		})
		changed = false
		for _, j := range act {
			if pap[j] <= 0 || math.IsNaN(pap[j]) {
				// Breakdown: scalar PCG returns the best iterate so far.
				copyColumn(x, best, j)
				status[j] = colDone
				results[j] = Result{Iterations: it, Residual: bestRes[j]}
				errs[j] = ErrNoConvergence
				changed = true
				continue
			}
			alpha[j] = rz[j] / pap[j]
		}
		if changed {
			compact()
			if len(act) == 0 {
				break
			}
		}

		// x += α·p, r −= α·ap: one fused row pass (per-row private writes).
		parallel.For(n, 0, func(lo, hi int) {
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

		precondBlock(m, z, r, act)
		parallel.ForEach(len(act), 1, func(c int) {
			j := act[c]
			rzNew := colDot(r, z, j)
			beta[j] = rzNew / rz[j]
			rz[j] = rzNew
		})
		// p = z + β·p, fused.
		parallel.For(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				prow := p.Data[i*k : (i+1)*k]
				zrow := z.Data[i*k : (i+1)*k]
				for _, j := range act {
					prow[j] = zrow[j] + beta[j]*prow[j]
				}
			}
		})
	}

	// Budget exhausted: final residual check, return the best iterate.
	for _, j := range act {
		res := colNorm2(r, j) / bnorm[j]
		if res < bestRes[j] {
			bestRes[j] = res
			copyColumn(best, x, j)
		}
		copyColumn(x, best, j)
		results[j] = Result{Iterations: opts.MaxIter, Residual: bestRes[j]}
		if bestRes[j] > opts.Tol {
			errs[j] = ErrNoConvergence
		}
	}
	return x, results, errs
}

// copyColumn copies column j of src into dst (same shape).
func copyColumn(dst, src *mat.Dense, j int) {
	w := src.Cols
	for i := 0; i < src.Rows; i++ {
		dst.Data[i*w+j] = src.Data[i*w+j]
	}
}

// copyPColumn is copyColumn under a name that reads as "initialize p from z".
func copyPColumn(dst, src *mat.Dense, j int) { copyColumn(dst, src, j) }

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
		x, results, errs := PCGBlockGuess(AsOp(s.L), s.prec, tile, guess, s.opts)
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
