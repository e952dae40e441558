// Package mat provides dense linear-algebra primitives used throughout the
// CirSTAG reproduction: vectors, row-major dense matrices, BLAS-style
// kernels, a symmetric tridiagonal eigensolver, and a Cholesky
// factorization. Everything is pure Go on float64 and sized for
// laptop-scale spectral computations (up to a few hundred thousand rows,
// narrow column counts).
package mat

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector.
type Vec []float64

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func (v Vec) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// FirstNonFinite returns the index of the first NaN or ±Inf entry of v, or
// -1 when every entry is finite. Used by the pipeline's input validation and
// degenerate-geometry checks.
func (v Vec) FirstNonFinite() int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func Dot(v, w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow for
// moderately large entries via scaling.
func Norm2(v Vec) float64 {
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
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

// NormInf returns the maximum absolute entry of v (0 for an empty vector).
func NormInf(v Vec) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes w += alpha*v in place. It panics if lengths differ.
func Axpy(alpha float64, v, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(v), len(w)))
	}
	for i, x := range v {
		w[i] += alpha * x
	}
}

// Scale multiplies every element of v by alpha in place.
func Scale(alpha float64, v Vec) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sum returns the sum of the entries of v.
func Sum(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v (0 for an empty vector).
func Mean(v Vec) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Normalize scales v to unit Euclidean norm in place and returns the original
// norm. A zero vector is left unchanged and 0 is returned.
func Normalize(v Vec) float64 {
	n := Norm2(v)
	if n == 0 {
		return 0
	}
	Scale(1/n, v)
	return n
}

// MaxAbsDiff returns the maximum absolute elementwise difference between v
// and w. It panics if lengths differ.
func MaxAbsDiff(v, w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: MaxAbsDiff length mismatch %d vs %d", len(v), len(w)))
	}
	var m float64
	for i := range v {
		if d := math.Abs(v[i] - w[i]); d > m {
			m = d
		}
	}
	return m
}
