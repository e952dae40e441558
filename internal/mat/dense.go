package mat

import (
	"fmt"
	"math"

	"cirstag/internal/parallel"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense returns a zeroed Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: NewDense negative dims %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a Dense from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: FromRows ragged row %d: %d vs %d", i, len(r), c))
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) Vec { return Vec(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Col returns column j as a freshly allocated vector.
func (m *Dense) Col(j int) Vec {
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SetCol copies v into column j.
func (m *Dense) SetCol(j int, v Vec) {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("mat: SetCol length %d vs rows %d", len(v), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// FirstNonFinite returns the (row, col) of the first NaN or ±Inf entry of m,
// or (-1, -1) when every entry is finite.
func (m *Dense) FirstNonFinite() (int, int) {
	if i := Vec(m.Data).FirstNonFinite(); i >= 0 && m.Cols > 0 {
		return i / m.Cols, i % m.Cols
	}
	return -1, -1
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			out.Data[j*m.Rows+i] = x
		}
	}
	return out
}

// MulVec returns m*v.
func (m *Dense) MulVec(v Vec) Vec {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec dims %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecT returns mᵀ*v (v has length Rows).
func (m *Dense) MulVecT(v Vec) Vec {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecT dims %dx%dᵀ * %d", m.Rows, m.Cols, len(v)))
	}
	out := make(Vec, m.Cols)
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			out[j] += vi * x
		}
	}
	return out
}

// Mul returns m*b. Its row range shards across the worker pool; output rows
// are disjoint, so sharding never changes the result.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dims %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewDense(m.Rows, b.Cols)
	// ikj loop order: stream over b's rows for cache friendliness.
	parallel.For(m.Rows, parallel.Grain(m.Cols*b.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := m.Data[i*m.Cols : (i+1)*m.Cols]
			orow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for k, a := range arow {
				if a == 0 {
					continue
				}
				brow := b.Data[k*b.Cols : (k+1)*b.Cols]
				for j, x := range brow {
					orow[j] += a * x
				}
			}
		}
	})
	return out
}

// MulT returns mᵀ*b where m is Rows x Cols and b is Rows x K.
func (m *Dense) MulT(b *Dense) *Dense {
	if m.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulT dims %dx%dᵀ * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewDense(m.Cols, b.Cols)
	for r := 0; r < m.Rows; r++ {
		arow := m.Data[r*m.Cols : (r+1)*m.Cols]
		brow := b.Data[r*b.Cols : (r+1)*b.Cols]
		for i, a := range arow {
			if a == 0 {
				continue
			}
			orow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for j, x := range brow {
				orow[j] += a * x
			}
		}
	}
	return out
}

// Add computes m += b elementwise in place.
func (m *Dense) Add(b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Add dims %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	for i, x := range b.Data {
		m.Data[i] += x
	}
}

// AxpyMat computes m += alpha*b elementwise in place.
func (m *Dense) AxpyMat(alpha float64, b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: AxpyMat dims %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	for i, x := range b.Data {
		m.Data[i] += alpha * x
	}
}

// ScaleMat multiplies every element of m by alpha in place.
func (m *Dense) ScaleMat(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// MaxAbs returns the largest absolute entry of m.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, x := range m.Data {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// Equalish reports whether m and b agree elementwise within tol.
func (m *Dense) Equalish(b *Dense, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, x := range m.Data {
		if math.Abs(x-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
