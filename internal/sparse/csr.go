// Package sparse implements compressed sparse row (CSR) matrices and the
// handful of kernels the spectral pipeline needs: sparse matrix-vector and
// matrix-(narrow)matrix products, transposition, diagonal extraction, and
// Laplacian assembly from weighted edge lists.
package sparse

import (
	"fmt"
	"sort"

	"cirstag/internal/mat"
	"cirstag/internal/parallel"
)

// Entry is a single (row, col, value) triplet of a COO matrix.
type Entry struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix. Within each row, column indices are
// strictly increasing and duplicates have been summed.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []float64
}

// NewCSR assembles a CSR matrix from COO triplets, summing duplicates.
// Entries whose summed value is exactly zero are kept (callers that want
// pruning should use Prune). Out-of-bounds entries panic — internal callers
// construct entry lists from already-validated structures; use FromEntries
// for triplets of unknown provenance.
func NewCSR(rows, cols int, entries []Entry) *CSR {
	m, err := FromEntries(rows, cols, entries)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// FromEntries is NewCSR with untrusted input: negative dimensions or an entry
// outside rows×cols is a returned error instead of a panic.
func FromEntries(rows, cols int, entries []Entry) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of bounds %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		m.Val = append(m.Val, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns element (i, j) via binary search within row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// MulVec computes y = m·x.
func (m *CSR) MulVec(x mat.Vec) mat.Vec {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVec dims %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	y := make(mat.Vec, m.Rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = m·x into a caller-provided y (len Rows), avoiding
// allocation in iterative solvers. The row range shards across the worker
// pool, a row costing its mean stored-entry count (here and in the
// products below, times the columns it updates); each row's accumulation
// order is fixed, so the result is bit-identical for any worker count.
func (m *CSR) MulVecTo(y, x mat.Vec) {
	if len(y) != m.Rows || len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVecTo dims y=%d x=%d for %dx%d", len(y), len(x), m.Rows, m.Cols))
	}
	parallel.For(m.Rows, parallel.Grain(len(m.Val)/max(m.Rows, 1)), func(lo, hi int) { m.mulVecRange(y, x, lo, hi) })
}

func (m *CSR) mulVecRange(y, x mat.Vec, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// MulDense computes m·b for a narrow dense b. Rows shard across the worker
// pool (per-row output, deterministic for any worker count); this is the
// aggregation kernel of the GCN/SAGE forward passes.
func (m *CSR) MulDense(b *mat.Dense) *mat.Dense {
	if b.Rows != m.Cols {
		panic(fmt.Sprintf("sparse: MulDense dims %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := mat.NewDense(m.Rows, b.Cols)
	parallel.For(m.Rows, parallel.Grain(b.Cols*len(m.Val)/max(m.Rows, 1)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				v := m.Val[k]
				brow := b.Data[m.ColIdx[k]*b.Cols : (m.ColIdx[k]+1)*b.Cols]
				for j, x := range brow {
					orow[j] += v * x
				}
			}
		}
	})
	return out
}

// MulDenseColsTo computes y[:,j] = m·x[:,j] for the selected columns j of a
// narrow dense x, into a caller-provided y of the same shape. This is the
// fused SpMV of the blocked PCG: one pass over the CSR structure updates all
// selected right-hand sides, so the matrix is streamed once per iteration
// instead of once per column. Rows shard across the worker pool (per-row
// output, fixed accumulation order within a row), so each selected column's
// result is bit-identical to MulVecTo on that column for any worker count.
// Columns outside cols are left untouched.
func (m *CSR) MulDenseColsTo(y, x *mat.Dense, cols []int) {
	if x.Rows != m.Cols || y.Rows != m.Rows || x.Cols != y.Cols {
		panic(fmt.Sprintf("sparse: MulDenseColsTo dims y=%dx%d x=%dx%d for %dx%d",
			y.Rows, y.Cols, x.Rows, x.Cols, m.Rows, m.Cols))
	}
	w := x.Cols
	full := len(cols) == w // dense fast path: every column selected
	parallel.For(m.Rows, parallel.Grain(len(cols)*len(m.Val)/max(m.Rows, 1)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			yrow := y.Data[i*w : (i+1)*w]
			if full {
				for j := range yrow {
					yrow[j] = 0
				}
			} else {
				for _, j := range cols {
					yrow[j] = 0
				}
			}
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				v := m.Val[k]
				xrow := x.Data[m.ColIdx[k]*w : (m.ColIdx[k]+1)*w]
				if full {
					for j, xv := range xrow {
						yrow[j] += v * xv
					}
				} else {
					for _, j := range cols {
						yrow[j] += v * xrow[j]
					}
				}
			}
		}
	})
}

// T returns the transpose as a new CSR.
func (m *CSR) T() *CSR {
	entries := make([]Entry, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			entries = append(entries, Entry{Row: m.ColIdx[k], Col: i, Val: m.Val[k]})
		}
	}
	return NewCSR(m.Cols, m.Rows, entries)
}

// Diag returns the main diagonal as a vector.
func (m *CSR) Diag() mat.Vec {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make(mat.Vec, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Prune returns a copy of m with entries of magnitude <= tol removed.
func (m *CSR) Prune(tol float64) *CSR {
	entries := make([]Entry, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			v := m.Val[k]
			if v > tol || v < -tol {
				entries = append(entries, Entry{Row: i, Col: m.ColIdx[k], Val: v})
			}
		}
	}
	return NewCSR(m.Rows, m.Cols, entries)
}

// Scale returns alpha*m as a new CSR sharing no storage with m.
func (m *CSR) Scale(alpha float64) *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    make([]float64, len(m.Val))}
	for i, v := range m.Val {
		out.Val[i] = alpha * v
	}
	return out
}

// Add returns m + b as a new CSR. Dimensions must match.
func (m *CSR) Add(b *CSR) *CSR {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: Add dims %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	entries := make([]Entry, 0, m.NNZ()+b.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			entries = append(entries, Entry{Row: i, Col: m.ColIdx[k], Val: m.Val[k]})
		}
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			entries = append(entries, Entry{Row: i, Col: b.ColIdx[k], Val: b.Val[k]})
		}
	}
	return NewCSR(m.Rows, m.Cols, entries)
}

// AddDiag returns m + diag(d) as a new CSR.
func (m *CSR) AddDiag(d mat.Vec) *CSR {
	if len(d) != m.Rows || m.Rows != m.Cols {
		panic(fmt.Sprintf("sparse: AddDiag needs square matrix matching diag, got %dx%d and %d", m.Rows, m.Cols, len(d)))
	}
	entries := make([]Entry, 0, m.NNZ()+m.Rows)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			entries = append(entries, Entry{Row: i, Col: m.ColIdx[k], Val: m.Val[k]})
		}
		entries = append(entries, Entry{Row: i, Col: i, Val: d[i]})
	}
	return NewCSR(m.Rows, m.Cols, entries)
}

// ToDense materializes m as a dense matrix (for tests and tiny problems).
func (m *CSR) ToDense() *mat.Dense {
	out := mat.NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return out
}

// IsSymmetric reports whether m equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			d := m.Val[k] - m.At(j, i)
			if d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}

// QuadForm returns xᵀ·m·x.
func (m *CSR) QuadForm(x mat.Vec) float64 {
	return mat.Dot(x, m.MulVec(x))
}
