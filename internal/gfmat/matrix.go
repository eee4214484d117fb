// Package gfmat provides dense linear algebra over GF(2^8): matrices and
// their rank by Gaussian elimination, and an incremental decoder
// that keeps arriving coded blocks in row-echelon form keyed on each row's
// last nonzero column, enabling the progressive partial decoding described
// in Sec. 3.2 of the paper.
package gfmat

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/gf256"
)

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte
}

// New returns a zero matrix with the given dimensions.
func New(rows, cols int) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("gfmat: invalid dimensions %dx%d", rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}, nil
}

// FromRows builds a matrix from row slices, which must all have the same
// length. The rows are copied.
func FromRows(rows [][]byte) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m, err := New(len(rows), cols)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("gfmat: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Random returns an r×c matrix with entries drawn uniformly from GF(2^8)
// (including zero).
func Random(rng *rand.Rand, rows, cols int) (*Matrix, error) {
	m, err := New(rows, cols)
	if err != nil {
		return nil, err
	}
	rng.Read(m.data)
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) byte { return m.data[i*m.cols+j] }

// Row returns a mutable view of row i (not a copy).
func (m *Matrix) Row(i int) []byte {
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, data: make([]byte, len(m.data))}
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical dimensions and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
}

// Rank returns the rank of m. m is not modified.
func (m *Matrix) Rank() int {
	w := m.Clone()
	return w.rankInPlace()
}

// rankInPlace performs forward elimination destroying w and returns its rank.
func (w *Matrix) rankInPlace() int {
	rank := 0
	for col := 0; col < w.cols && rank < w.rows; col++ {
		// Find a pivot at or below row `rank`.
		pivot := -1
		for r := rank; r < w.rows; r++ {
			if w.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		if pivot != rank {
			w.swapRows(pivot, rank)
		}
		prow := w.Row(rank)
		inv, err := gf256.Inv(prow[col])
		if err != nil {
			// Unreachable: pivot is nonzero by construction.
			continue
		}
		gf256.ScaleInPlace(prow, inv)
		for r := rank + 1; r < w.rows; r++ {
			if c := w.At(r, col); c != 0 {
				gf256.AddMulSlice(w.Row(r), prow, c)
			}
		}
		rank++
	}
	return rank
}

// rrefInPlace brings w to reduced row-echelon form: rankInPlace's
// forward elimination, then each pivot row, bottom up, cleared from the
// rows above it. Dependent rows end up as zero rows at the bottom.
func (w *Matrix) rrefInPlace() {
	for i := w.rankInPlace() - 1; i > 0; i-- {
		prow := w.Row(i)
		lead := gf256.NextNonzero(prow, 0)
		for r := 0; r < i; r++ {
			if c := w.At(r, lead); c != 0 {
				gf256.AddMulSlice(w.Row(r), prow, c)
			}
		}
	}
}

func (w *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := w.Row(i), w.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// IsRREF reports whether m is in reduced row-echelon form: pivots are 1,
// strictly right of the pivot in the previous row, and the only nonzero
// entry in their column; zero rows are at the bottom.
func (m *Matrix) IsRREF() bool {
	prevPivot := -1
	sawZeroRow := false
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		lead := -1
		for j, v := range row {
			if v != 0 {
				lead = j
				break
			}
		}
		if lead < 0 {
			sawZeroRow = true
			continue
		}
		if sawZeroRow {
			return false // nonzero row below a zero row
		}
		if lead <= prevPivot {
			return false
		}
		if row[lead] != 1 {
			return false
		}
		for r := 0; r < m.rows; r++ {
			if r != i && m.At(r, lead) != 0 {
				return false
			}
		}
		prevPivot = lead
	}
	return true
}

// String renders the matrix in hexadecimal for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%02x", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
