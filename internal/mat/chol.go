package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with a = L·Lᵀ. Only the
// lower triangle of a is read.
func Cholesky(a *Dense) (*Dense, error) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("mat: Cholesky needs square matrix, got %dx%d", a.Rows, a.Cols))
	}
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholSolve solves a·x = b given the Cholesky factor l of a (a = L·Lᵀ).
func CholSolve(l *Dense, b Vec) Vec {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: CholSolve dims %d vs %d", n, len(b)))
	}
	// Forward: L y = b.
	y := make(Vec, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: Lᵀ x = y.
	x := make(Vec, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}
