package solver

import (
	"fmt"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/sparse"
)

// Inner-solve metrics: the Laplacian solves inside the generalized eigensolve
// (eig.GeneralizedTopKSeeded) dominate Phase-3 cost, so the per-solve PCG
// iteration distribution and the final relative residuals are first-class
// convergence signals.
var (
	lapSolves        = obs.NewCounter("solver.laplacian.solves")
	lapNoConvergence = obs.NewCounter("solver.laplacian.no_convergence")
	pcgIterations    = obs.NewHistogram("solver.pcg.iterations", obs.ExpBuckets(8, 2, 12)...)
	pcgResidual      = obs.NewHistogram("solver.pcg.residual", obs.ExpBuckets(1e-14, 10, 16)...)
)

// Laplacian applies the Moore–Penrose pseudo-inverse L⁺ of a graph Laplacian.
// For each connected component it projects the right-hand side onto the
// subspace orthogonal to the component's constant vector (where L is
// invertible), then runs Jacobi-preconditioned CG, and finally projects the
// solution back. This is the standard way to make CG well-posed on a PSD
// Laplacian system.
type Laplacian struct {
	L     *sparse.CSR
	prec  Preconditioner
	comp  []int // component id per node
	sizes []int // component sizes
	opts  Options
	// regularized operator: L + eps·I restricted per component keeps CG
	// stable when components are tiny.
}

// NewLaplacian prepares a pseudo-inverse solver for the Laplacian of g.
func NewLaplacian(g *graph.Graph, opts Options) *Laplacian {
	l := g.Laplacian()
	comp, nc := g.ConnectedComponents()
	sizes := make([]int, nc)
	for _, c := range comp {
		sizes[c]++
	}
	return &Laplacian{L: l, prec: buildPrec(l, opts), comp: comp, sizes: sizes, opts: opts}
}

func buildPrec(l *sparse.CSR, opts Options) Preconditioner {
	if opts.Precond == PrecondTree {
		return NewTreePrecFromCSR(l)
	}
	return NewJacobi(l)
}

// NewLaplacianFromCSR prepares a solver from an explicit Laplacian matrix.
// The component structure is recovered from the sparsity pattern.
func NewLaplacianFromCSR(l *sparse.CSR, opts Options) *Laplacian {
	if l.Rows != l.Cols {
		panic(fmt.Sprintf("solver: Laplacian must be square, got %dx%d", l.Rows, l.Cols))
	}
	// Recover components via union-find over the off-diagonal pattern.
	parent := make([]int, l.Rows)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < l.Rows; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			j := l.ColIdx[k]
			if j != i && l.Val[k] != 0 {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	label := make(map[int]int)
	comp := make([]int, l.Rows)
	for i := range comp {
		r := find(i)
		id, ok := label[r]
		if !ok {
			id = len(label)
			label[r] = id
		}
		comp[i] = id
	}
	sizes := make([]int, len(label))
	for _, c := range comp {
		sizes[c]++
	}
	return &Laplacian{L: l, prec: buildPrec(l, opts), comp: comp, sizes: sizes, opts: opts}
}

// project removes, in place, the per-component mean of v (projection onto the
// orthogonal complement of the Laplacian kernel).
func (s *Laplacian) project(v mat.Vec) {
	nc := len(s.sizes)
	sums := make([]float64, nc)
	for i, x := range v {
		sums[s.comp[i]] += x
	}
	for c := range sums {
		sums[c] /= float64(s.sizes[c])
	}
	for i := range v {
		v[i] -= sums[s.comp[i]]
	}
}

// Solve computes x = L⁺·b. The component-wise mean of b is ignored (it lies
// in the kernel) and the returned x has zero mean on every component.
func (s *Laplacian) Solve(b mat.Vec) (mat.Vec, error) {
	rhs := b.Clone()
	s.project(rhs)
	x, res, err := PCG(AsOp(s.L), s.prec, rhs, nil, s.opts)
	lapSolves.Inc()
	pcgIterations.Observe(float64(res.Iterations))
	pcgResidual.Observe(res.Residual)
	if err != nil {
		lapNoConvergence.Inc()
		return x, err
	}
	s.project(x)
	return x, nil
}

// Dim returns the number of nodes.
func (s *Laplacian) Dim() int { return s.L.Rows }
