package eig

import (
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
)

// reorthPasses counts Gram-Schmidt sweeps across both eigensolvers (two per
// orthogonalize call under the "twice is enough" scheme), a direct measure
// of how much of an eigensolve's time goes to keeping the basis orthogonal.
var reorthPasses = obs.NewCounter("eig.reorth_passes")

// orthogonalize removes from w its components along the basis, with
// coefficients measured against dual: w -= Σ_i (w·dual_i)·basis_i. For the
// Euclidean inner product pass the basis itself as dual; the generalized
// iteration passes the cached L_Y·q_i vectors.
//
// Two passes of classical Gram-Schmidt ("twice is enough") replace the
// original modified Gram-Schmidt sweep: CGS measures every coefficient
// against the *same* w, which turns the sweep into independent dot products
// plus one fused update — both parallelizable. The update loops basis vectors
// in index order inside each coordinate shard, so every w[x] sees the same
// floating-point accumulation order regardless of worker count.
func orthogonalize(w mat.Vec, basis, dual []mat.Vec) {
	if len(basis) == 0 {
		return
	}
	reorthPasses.Add(2)
	for pass := 0; pass < 2; pass++ {
		c := parallel.Map(len(basis), parallel.Grain(len(w)), func(i int) float64 { return mat.Dot(w, dual[i]) })
		parallel.For(len(w), parallel.Grain(len(basis)), func(lo, hi int) {
			for i, bi := range basis {
				ci := c[i]
				if ci == 0 {
					continue
				}
				for x := lo; x < hi; x++ {
					w[x] -= ci * bi[x]
				}
			}
		})
	}
}
