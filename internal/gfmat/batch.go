package gfmat

import (
	"fmt"

	"repro/internal/gf256"
)

// Batch decoding via plain Gaussian elimination — the strawman Sec. 3.2
// argues against: it solves the system only once it is fully determined,
// so nothing is recoverable from an underdetermined accumulation. It is
// retained as (a) the ablation baseline for the progressive decoder and
// (b) a somewhat faster path when a caller knows it has all the blocks up
// front (one forward elimination plus one back-substitution pass needs no
// per-block bookkeeping).

// BatchDecoder accumulates coded blocks and solves them in one shot.
type BatchDecoder struct {
	numSymbols int
	payloadLen int
	coeffs     [][]byte
	payloads   [][]byte
	// widths[i] bounds 1 + the last nonzero column of coeffs[i]; level
	// boundaries passed to AddBounded propagate through Solve's elimination
	// the same way the incremental decoder's row spans do.
	widths []int

	// arena backs the buffered rows in chunks of numSymbols rows, so Add
	// stops paying two heap allocations per block.
	arena chunkArena
}

// NewBatchDecoder returns a batch decoder over numSymbols unknowns.
func NewBatchDecoder(numSymbols, payloadLen int) (*BatchDecoder, error) {
	if numSymbols <= 0 {
		return nil, fmt.Errorf("gfmat: NewBatchDecoder: numSymbols %d, want > 0", numSymbols)
	}
	if payloadLen < 0 {
		return nil, fmt.Errorf("gfmat: NewBatchDecoder: negative payload length %d", payloadLen)
	}
	d := &BatchDecoder{numSymbols: numSymbols, payloadLen: payloadLen}
	d.arena.init(numSymbols+payloadLen, numSymbols)
	return d, nil
}

// Add buffers one coded block without processing it.
func (d *BatchDecoder) Add(coeff, payload []byte) error {
	return d.AddBounded(coeff, payload, d.numSymbols)
}

// AddBounded buffers one coded block whose coefficients are known by
// construction to be zero at and beyond column bound (see
// Decoder.AddBounded for the contract). Solve's elimination then operates
// on the bounded spans only.
func (d *BatchDecoder) AddBounded(coeff, payload []byte, bound int) error {
	if len(coeff) != d.numSymbols {
		return fmt.Errorf("%w: coefficient vector length %d, want %d",
			ErrDimensionMismatch, len(coeff), d.numSymbols)
	}
	if len(payload) != d.payloadLen {
		return fmt.Errorf("%w: payload length %d, want %d",
			ErrDimensionMismatch, len(payload), d.payloadLen)
	}
	if bound < 0 || bound > d.numSymbols {
		return fmt.Errorf("%w: boundary %d outside [0, %d]",
			ErrDimensionMismatch, bound, d.numSymbols)
	}
	row := d.arena.alloc()
	c := row[:d.numSymbols:d.numSymbols]
	p := row[d.numSymbols:]
	copy(c[:bound], coeff[:bound])
	copy(p, payload)
	d.coeffs = append(d.coeffs, c)
	d.payloads = append(d.payloads, p)
	d.widths = append(d.widths, bound)
	return nil
}

// Buffered returns the number of blocks accumulated.
func (d *BatchDecoder) Buffered() int { return len(d.coeffs) }

// Solve runs forward Gaussian elimination and back-substitution. It
// returns all numSymbols payloads, or an error when the system is
// underdetermined — the all-or-nothing behavior that motivates the
// progressive decoder. Row operations are truncated to the rows' active
// spans, so level-structured accumulations (SLC block-diagonal, PLC
// lower-triangular by blocks) eliminate in O(span) per operation.
func (d *BatchDecoder) Solve() ([][]byte, error) {
	n := d.numSymbols
	rows := len(d.coeffs)
	if rows < n {
		return nil, fmt.Errorf("gfmat: underdetermined system: %d blocks for %d symbols", rows, n)
	}
	// Work on copies; Solve must be re-runnable after more Adds. The
	// working rows are sliced out of two one-shot backing arrays rather
	// than allocated individually.
	a := make([][]byte, rows)
	b := make([][]byte, rows)
	w := make([]int, rows)
	abuf := make([]byte, rows*n)
	bbuf := make([]byte, rows*d.payloadLen)
	for i := range d.coeffs {
		a[i] = abuf[i*n : (i+1)*n : (i+1)*n]
		copy(a[i], d.coeffs[i])
		b[i] = bbuf[i*d.payloadLen : (i+1)*d.payloadLen : (i+1)*d.payloadLen]
		copy(b[i], d.payloads[i])
		w[i] = d.widths[i]
	}

	// Forward elimination with partial pivoting by first nonzero. The
	// invariant that rows at or below rank have zeros in all columns < col
	// means the pivot row's nonzeros live in [col, w[rank]), so every row
	// operation runs over that span only; a target row's span grows to the
	// pivot row's when the pivot row is wider.
	rank := 0
	pivotRow := make([]int, n)
	for col := 0; col < n && rank < rows; col++ {
		p := -1
		for r := rank; r < rows; r++ {
			if a[r][col] != 0 {
				p = r
				break
			}
		}
		if p < 0 {
			return nil, fmt.Errorf("gfmat: singular accumulation: no pivot for symbol %d", col)
		}
		a[p], a[rank] = a[rank], a[p]
		b[p], b[rank] = b[rank], b[p]
		w[p], w[rank] = w[rank], w[p]
		pw := w[rank]
		inv, err := gf256.Inv(a[rank][col])
		if err != nil {
			return nil, fmt.Errorf("gfmat: normalize pivot: %w", err)
		}
		gf256.ScaleInPlace(a[rank][col:pw], inv)
		gf256.ScaleInPlace(b[rank], inv)
		for r := rank + 1; r < rows; r++ {
			if c := a[r][col]; c != 0 {
				gf256.AddMulSlice(a[r][col:pw], a[rank][col:pw], c)
				if w[r] < pw {
					w[r] = pw
				}
				gf256.AddMulSlice(b[r], b[rank], c)
			}
		}
		pivotRow[col] = rank
		rank++
	}
	if rank < n {
		return nil, fmt.Errorf("gfmat: rank %d < %d symbols", rank, n)
	}

	// Batched back-substitution from the last pivot upward.
	reduceRowsBounded(a, b, pivotRow, w)

	out := make([][]byte, n)
	for col := 0; col < n; col++ {
		out[col] = append([]byte(nil), b[pivotRow[col]]...)
	}
	return out, nil
}

// ReduceRows is the batched back-substitution pass shared by one-shot
// solvers: given rows in row-echelon form — pivotRow[col] names the row
// holding column col's pivot, pivots normalized to 1, and every pivot row
// index strictly increasing with col — it eliminates each pivot column from
// all rows above it, bringing the system to reduced row-echelon form.
// Identical row operations are applied to payloads; payloads may be nil
// when only the coefficient matrix matters.
//
// Running one batched pass over a fully determined system does each
// elimination exactly once.
func ReduceRows(coeffs, payloads [][]byte, pivotRow []int) {
	widths := make([]int, len(coeffs))
	for i, c := range coeffs {
		widths[i] = len(c)
	}
	reduceRowsBounded(coeffs, payloads, pivotRow, widths)
}

// reduceRowsBounded is ReduceRows with per-row active spans: widths[i]
// bounds 1 + the last nonzero column of coeffs[i], row operations run over
// the pivot row's span [col, widths[pr]) only, and target spans grow as
// wider pivot rows fold in. Widths are updated in place.
func reduceRowsBounded(coeffs, payloads [][]byte, pivotRow, widths []int) {
	for col := len(pivotRow) - 1; col >= 0; col-- {
		pr := pivotRow[col]
		pc := coeffs[pr]
		pw := widths[pr]
		var pp []byte
		if payloads != nil {
			pp = payloads[pr]
		}
		for r := 0; r < pr; r++ {
			if c := coeffs[r][col]; c != 0 {
				gf256.AddMulSlice(coeffs[r][col:pw], pc[col:pw], c)
				if widths[r] < pw {
					widths[r] = pw
				}
				if payloads != nil {
					gf256.AddMulSlice(payloads[r], pp, c)
				}
			}
		}
	}
}
