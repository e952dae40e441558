// Package solver provides iterative solvers for the symmetric positive
// (semi-)definite systems that arise throughout CirSTAG: preconditioned
// conjugate gradients for SPD matrices, and a Laplacian solver that applies
// the Moore–Penrose pseudo-inverse L⁺ by solving inside the subspace
// orthogonal to the constant vector on each connected component.
package solver

import (
	"errors"
	"fmt"
	"math"

	"cirstag/internal/faultinject"
	"cirstag/internal/mat"
	"cirstag/internal/sparse"
)

// Op is a linear operator on R^n. CSR matrices satisfy it via MulVecTo.
type Op interface {
	// ApplyTo computes y = A·x. y and x must not alias.
	ApplyTo(y, x mat.Vec)
	// Dim returns n.
	Dim() int
}

// csrOp adapts a square CSR matrix to Op.
type csrOp struct{ m *sparse.CSR }

func (o csrOp) ApplyTo(y, x mat.Vec) { o.m.MulVecTo(y, x) }
func (o csrOp) Dim() int             { return o.m.Rows }

// AsOp wraps a square CSR matrix as an Op.
func AsOp(m *sparse.CSR) Op {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("solver: AsOp needs square matrix, got %dx%d", m.Rows, m.Cols))
	}
	return csrOp{m}
}

// Preconditioner applies an approximation of A⁻¹.
type Preconditioner interface {
	// PrecondTo computes z = M⁻¹·r. z and r must not alias.
	PrecondTo(z, r mat.Vec)
	// PrecondBlockTo computes z[:,j] = M⁻¹·r[:,j] for the selected columns,
	// bitwise equal to PrecondTo per column.
	PrecondBlockTo(z, r *mat.Dense, cols []int)
}

// JacobiPrec preconditions with the inverse diagonal of A. Zero or negative
// diagonal entries fall back to 1 (identity on that coordinate).
type JacobiPrec struct{ invDiag mat.Vec }

// NewJacobi builds a Jacobi preconditioner from the diagonal of m.
func NewJacobi(m *sparse.CSR) *JacobiPrec {
	d := m.Diag()
	inv := make(mat.Vec, len(d))
	for i, x := range d {
		if x > 0 {
			inv[i] = 1 / x
		} else {
			inv[i] = 1
		}
	}
	return &JacobiPrec{invDiag: inv}
}

// PrecondTo computes z = D⁻¹ r.
func (p *JacobiPrec) PrecondTo(z, r mat.Vec) {
	for i, x := range r {
		z[i] = p.invDiag[i] * x
	}
}

// PrecondKind selects the preconditioner a Laplacian solver builds.
type PrecondKind int

const (
	// PrecondJacobi uses the inverse diagonal (default; cheap, adequate for
	// well-conditioned graphs).
	PrecondJacobi PrecondKind = iota
	// PrecondTree uses a maximum-weight spanning-forest solve (Vaidya),
	// robust to edge weights spanning many orders of magnitude.
	PrecondTree
)

// Options controls the PCG iteration.
type Options struct {
	Tol     float64     // relative residual target; default 1e-8
	MaxIter int         // default 10n (capped at a large constant)
	Precond PrecondKind // preconditioner for Laplacian solvers
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter > 200000 {
			o.MaxIter = 200000
		}
		if o.MaxIter < 200 {
			o.MaxIter = 200
		}
	}
	return o
}

// ErrNoConvergence is returned when PCG exhausts its iteration budget without
// reaching the requested tolerance. The best iterate found is still returned.
var ErrNoConvergence = errors.New("solver: PCG did not converge")

// Result reports convergence statistics of a PCG solve.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual ||b-Ax|| / ||b||
}

// PCG solves A·x = b for SPD (or PSD with b in range(A)) operator a, using
// preconditioner m. x0 may be nil for a zero initial guess. It returns the
// solution and convergence statistics.
func PCG(a Op, m Preconditioner, b, x0 mat.Vec, opts Options) (mat.Vec, Result, error) {
	n := a.Dim()
	if len(b) != n {
		panic(fmt.Sprintf("solver: PCG rhs length %d, operator dim %d", len(b), n))
	}
	opts = opts.withDefaults(n)
	// Fault-injection point: tests cap the budget here to simulate a
	// non-converging solve (no-op in production).
	opts.MaxIter = faultinject.Int(faultinject.PointPCGMaxIter, opts.MaxIter)
	x := make(mat.Vec, n)
	if x0 != nil {
		copy(x, x0)
	}
	r := make(mat.Vec, n)
	tmp := make(mat.Vec, n)
	a.ApplyTo(tmp, x)
	for i := range r {
		r[i] = b[i] - tmp[i]
	}
	bnorm := mat.Norm2(b)
	if bnorm == 0 {
		return x, Result{Iterations: 0, Residual: 0}, nil
	}
	z := make(mat.Vec, n)
	m.PrecondTo(z, r)
	p := z.Clone()
	rz := mat.Dot(r, z)
	best := x.Clone()
	bestRes := mat.Norm2(r) / bnorm
	var it int
	for it = 0; it < opts.MaxIter; it++ {
		res := mat.Norm2(r) / bnorm
		if res < bestRes {
			bestRes = res
			copy(best, x)
		}
		if res <= opts.Tol {
			return x, Result{Iterations: it, Residual: res}, nil
		}
		a.ApplyTo(tmp, p)
		pap := mat.Dot(p, tmp)
		if pap <= 0 || math.IsNaN(pap) {
			// Operator is not positive along p (numerical breakdown on a PSD
			// system); return the best iterate so far.
			return best, Result{Iterations: it, Residual: bestRes}, ErrNoConvergence
		}
		alpha := rz / pap
		mat.Axpy(alpha, p, x)
		mat.Axpy(-alpha, tmp, r)
		m.PrecondTo(z, r)
		rzNew := mat.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res := mat.Norm2(r) / bnorm
	if res < bestRes {
		bestRes = res
		copy(best, x)
	}
	if bestRes <= opts.Tol {
		return best, Result{Iterations: it, Residual: bestRes}, nil
	}
	return best, Result{Iterations: it, Residual: bestRes}, ErrNoConvergence
}
