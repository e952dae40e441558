// Package embed implements Phase 1 of CirSTAG: nonlinear dimensionality
// reduction of the input circuit graph via weighted spectral embedding.
// Following paper eq. (4), the embedding matrix is
//
//	U_M = [ √|1−λ̃₁|·ũ₁, …, √|1−λ̃_M|·ũ_M ],
//
// where λ̃ᵢ, ũᵢ are the M smallest eigenpairs of the symmetric normalized
// Laplacian L_norm = I − D^{−1/2}AD^{−1/2}. The √|1−λ̃ᵢ| column weighting
// emphasizes smooth (low-frequency) structure, so Euclidean distances between
// embedded nodes reflect diffusion proximity on the circuit graph.
package embed

import (
	"fmt"
	"math"
	"math/rand"

	"cirstag/internal/cache"
	"cirstag/internal/eig"
	"cirstag/internal/graph"
	"cirstag/internal/mat"
)

// Options configures the spectral embedding.
type Options struct {
	// Dims is the embedding dimension M. Default 16 (clamped to n−1).
	Dims int
	// Eig forwards options to the Lanczos solver.
	Eig eig.Options
}

// AddToKey mixes every result-affecting embedding option into an
// artifact-cache key (the caller supplies the graph content and RNG seed).
// New result-affecting fields must be added here.
func (o Options) AddToKey(k *cache.Key) *cache.Key {
	k.Int(int64(o.Dims))
	return o.Eig.AddToKey(k)
}

func (o Options) withDefaults(n int) Options {
	if o.Dims <= 0 {
		o.Dims = 16
	}
	if o.Dims > n-1 && n > 1 {
		o.Dims = n - 1
	}
	if n == 1 {
		o.Dims = 1
	}
	return o
}

// Result carries the spectral embedding and its eigenvalues.
type Result struct {
	U      *mat.Dense // n x M weighted spectral embedding (eq. 4)
	Values mat.Vec    // the M smallest eigenvalues of L_norm, ascending
}

// Spectral computes the weighted spectral embedding of g.
func Spectral(g *graph.Graph, rng *rand.Rand, opts Options) *Result {
	n := g.N()
	if n == 0 {
		return &Result{U: mat.NewDense(0, 0), Values: nil}
	}
	opts = opts.withDefaults(n)
	k := opts.Dims
	ln := g.NormalizedLaplacian()
	var vals mat.Vec
	var vecs *mat.Dense
	if n <= 200 {
		// Small graphs: dense eigensolve is both faster and more robust.
		all, allVecs := mat.SymEig(ln.ToDense())
		vals = all[:k]
		vecs = mat.NewDense(n, k)
		for j := 0; j < k; j++ {
			vecs.SetCol(j, allVecs.Col(j))
		}
	} else {
		vals, vecs = eig.SmallestNormalizedLaplacian(ln, k, rng, opts.Eig)
	}
	u := mat.NewDense(n, k)
	values := make(mat.Vec, k)
	for j := 0; j < k; j++ {
		lam := vals[j]
		values[j] = lam
		w := math.Sqrt(math.Abs(1 - lam))
		col := vecs.Col(j)
		mat.Scale(w, col)
		u.SetCol(j, col)
	}
	return &Result{U: u, Values: values}
}

// FeatureAugmented appends (column-normalized) node features to a spectral
// embedding, letting the input manifold reflect both topology and features.
// Each feature column is standardized to zero mean and unit variance, then
// scaled by alpha. The spectral part is not rescaled: its columns are
// unit-norm eigenvectors with standard deviation of about 1/√n, so at the
// pipeline's alpha of 1 the features carry nearly all of every squared
// distance (over 99.9% on the standard designs, DESIGN §5).
func FeatureAugmented(spectral *mat.Dense, features *mat.Dense, alpha float64) *mat.Dense {
	if features == nil || features.Cols == 0 {
		return spectral.Clone()
	}
	if spectral.Rows != features.Rows {
		panic(fmt.Sprintf("embed: spectral rows %d, feature rows %d", spectral.Rows, features.Rows))
	}
	n := spectral.Rows
	out := mat.NewDense(n, spectral.Cols+features.Cols)
	for i := 0; i < n; i++ {
		copy(out.Data[i*out.Cols:], spectral.Data[i*spectral.Cols:(i+1)*spectral.Cols])
	}
	for j := 0; j < features.Cols; j++ {
		col := features.Col(j)
		mean := mat.Mean(col)
		var variance float64
		for _, x := range col {
			d := x - mean
			variance += d * d
		}
		variance /= math.Max(1, float64(n-1))
		sd := math.Sqrt(variance)
		if sd == 0 {
			sd = 1
		}
		for i := 0; i < n; i++ {
			out.Set(i, spectral.Cols+j, alpha*(col[i]-mean)/sd)
		}
	}
	return out
}
