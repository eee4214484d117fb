package gfmat

import (
	"fmt"

	"repro/internal/gf256"
)

// RefDecoder is the dense, structure-blind Gauss–Jordan decoder the
// production Decoder replaced: every row pivots on its first nonzero
// column, every operation runs over the full row, and the matrix is kept
// in reduced row-echelon form by back-substituting each new pivot into
// every stored row. It answers the same questions as Decoder, and must
// give the same answers after every Add, so it serves as the reference
// oracle of the differential tests and the baseline side of the decode
// benchmarks — the decode-layer counterpart of gf256.AddMulSliceRef. It is
// not used outside tests.
type RefDecoder struct {
	numSymbols int
	payloadLen int
	pivotRow   []int // pivotRow[c] indexes the row whose leading column is c, or -1
	coeffs     [][]byte
	payloads   [][]byte
	scratch    []byte // coefficients then payload of the row being reduced
	arena      chunkArena
}

// NewRefDecoder returns a reference decoder over numSymbols unknowns with
// payloads of payloadLen bytes.
func NewRefDecoder(numSymbols, payloadLen int) (*RefDecoder, error) {
	if numSymbols <= 0 {
		return nil, fmt.Errorf("gfmat: NewRefDecoder: numSymbols %d, want > 0", numSymbols)
	}
	if payloadLen < 0 {
		return nil, fmt.Errorf("gfmat: NewRefDecoder: negative payload length %d", payloadLen)
	}
	d := &RefDecoder{
		numSymbols: numSymbols,
		payloadLen: payloadLen,
		pivotRow:   make([]int, numSymbols),
		scratch:    make([]byte, numSymbols+payloadLen),
	}
	d.arena.init(numSymbols+payloadLen, numSymbols)
	for i := range d.pivotRow {
		d.pivotRow[i] = -1
	}
	return d, nil
}

// NumSymbols returns the number of unknown source symbols.
func (d *RefDecoder) NumSymbols() int { return d.numSymbols }

// Rank returns the number of innovative blocks absorbed.
func (d *RefDecoder) Rank() int { return len(d.coeffs) }

// Complete reports whether all source symbols are decoded.
func (d *RefDecoder) Complete() bool { return len(d.coeffs) == d.numSymbols }

// Add absorbs one coded block, reporting whether it was innovative. The
// inputs are copied.
func (d *RefDecoder) Add(coeff, payload []byte) (bool, error) {
	if len(coeff) != d.numSymbols {
		return false, fmt.Errorf("%w: coefficient vector length %d, want %d",
			ErrDimensionMismatch, len(coeff), d.numSymbols)
	}
	if len(payload) != d.payloadLen {
		return false, fmt.Errorf("%w: payload length %d, want %d",
			ErrDimensionMismatch, len(payload), d.payloadLen)
	}
	// Reduce in the scratch row; only an innovative row reaches the arena.
	c, p := d.scratch[:d.numSymbols], d.scratch[d.numSymbols:]
	copy(c, coeff)
	copy(p, payload)
	for col, v := range c {
		if ri := d.pivotRow[col]; v != 0 && ri >= 0 {
			gf256.AddMulSlice(c, d.coeffs[ri], v)
			gf256.AddMulSlice(p, d.payloads[ri], v)
		}
	}
	pivot := gf256.NextNonzero(c, 0)
	if pivot == d.numSymbols {
		return false, nil
	}
	inv, err := gf256.Inv(c[pivot])
	if err != nil {
		return false, fmt.Errorf("gfmat: normalize pivot: %w", err)
	}
	row := d.arena.alloc()
	copy(row, d.scratch)
	c, p = row[:d.numSymbols:d.numSymbols], row[d.numSymbols:]
	gf256.ScaleInPlace(c, inv)
	gf256.ScaleInPlace(p, inv)
	for i, rc := range d.coeffs {
		if v := rc[pivot]; v != 0 {
			gf256.AddMulSlice(rc, c, v)
			gf256.AddMulSlice(d.payloads[i], p, v)
		}
	}
	d.pivotRow[pivot] = len(d.coeffs)
	d.coeffs = append(d.coeffs, c)
	d.payloads = append(d.payloads, p)
	return true, nil
}

// Decoded reports whether symbol i is decoded: its RREF row is a unit row.
func (d *RefDecoder) Decoded(i int) bool {
	if i < 0 || i >= d.numSymbols || d.pivotRow[i] < 0 {
		return false
	}
	for j, v := range d.coeffs[d.pivotRow[i]] {
		if v != 0 && j != i {
			return false
		}
	}
	return true
}

// DecodedPrefix returns the length of the maximal decoded prefix.
func (d *RefDecoder) DecodedPrefix() int {
	n := 0
	for n < d.numSymbols && d.Decoded(n) {
		n++
	}
	return n
}

// DecodedCount returns the number of individually decoded symbols.
func (d *RefDecoder) DecodedCount() int {
	n := 0
	for i := 0; i < d.numSymbols; i++ {
		if d.Decoded(i) {
			n++
		}
	}
	return n
}

// Symbol returns a copy of the decoded payload of symbol i.
func (d *RefDecoder) Symbol(i int) ([]byte, error) {
	if !d.Decoded(i) {
		return nil, fmt.Errorf("gfmat: symbol %d is not decoded (rank %d/%d)", i, d.Rank(), d.numSymbols)
	}
	return append([]byte(nil), d.payloads[d.pivotRow[i]]...), nil
}

// CoefficientMatrix returns a copy of the RREF coefficient matrix, rows in
// pivot order.
func (d *RefDecoder) CoefficientMatrix() (*Matrix, error) {
	m, err := New(len(d.coeffs), d.numSymbols)
	if err != nil {
		return nil, fmt.Errorf("gfmat: CoefficientMatrix: %w", err)
	}
	i := 0
	for _, ri := range d.pivotRow {
		if ri >= 0 {
			copy(m.Row(i), d.coeffs[ri])
			i++
		}
	}
	return m, nil
}
