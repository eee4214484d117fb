package gfmat

import (
	"errors"
	"fmt"

	"repro/internal/gf256"
)

// ErrDimensionMismatch is returned when a row added to a Decoder does not
// match the decoder's symbol count or payload length.
var ErrDimensionMismatch = errors.New("gfmat: dimension mismatch")

// Decoder is the progressive decoder of Sec. 3.2. It consumes coded blocks
// (a coefficient vector over the unknown source symbols plus a payload) one
// at a time and keeps the innovative ones in row-echelon form keyed on each
// row's *last* nonzero column, its pivot: a row with pivot c is 1 at c,
// zero right of c, and may be nonzero anywhere left of it.
//
// That is the shape the priority schemes produce. A PLC block of level k
// combines only the first b_k sources, so its last nonzero column lies
// inside its level, and the first j sources are decodable exactly when
// columns 0…j−1 all have a pivot row: those rows have no nonzeros right of
// column j−1, so they form a j×j unit lower-triangular system on their
// own, whatever else has arrived. Rank, DecodedPrefix and the innovative
// flag are therefore exact after every Add, and row order never matters.
//
// Elimination is forward only. An incoming row is folded against pivot
// rows from its right end leftwards and stops at the first column without
// a pivot row, which becomes its pivot; nothing is ever back-substituted
// into stored rows. When the decoded prefix grows, the newly decodable
// rows form a unit lower-triangular system over the solved rows left of
// them, which solveAdvance solves as one, solveGroup rows at a time, so a
// prefix's payloads are final the moment DecodedPrefix reports it.
// Symbols past the prefix (SLC-style partial decodes, chunk overlaps) are
// answered on demand by Decoded, DecodedCount and Symbol.
//
// Payload work is recorded while the coefficients are reduced and applied
// afterwards, so a dependent block is rejected on its coefficients alone.
// The query methods may commit a newly solved row, so no method is safe to
// call concurrently with any other. The zero value is not usable;
// construct with NewDecoder.
type Decoder struct {
	numSymbols int
	payloadLen int

	// pivotRow[c] is the index into rows of the row whose pivot is column c,
	// or -1 if no such row exists yet.
	pivotRow []int
	rows     []decRow

	// arena backs the committed rows, numSymbols+payloadLen bytes each
	// (coefficients and payload adjacent), decoderChunkRows rows at a time
	// (numSymbols when fewer).
	arena chunkArena

	// scratch holds a coefficient vector while it is reduced against the
	// pivot rows. It is all zero between calls: only rows that turn out
	// innovative are copied into the arena.
	scratch []byte

	// ops records the payload side of one reduction — add v times the
	// payload of rows[row] — so it can be applied once the coefficients
	// have decided the outcome (see fold).
	ops []payloadOp

	// decodedPrefix is the number of leading columns that all have a pivot
	// row; every one of those rows is solved. solved counts the unit rows,
	// the prefix plus those solved on demand past it.
	decodedPrefix int
	solved        int

	// folds counts payload folds: each AddMulSlice of one row's whole
	// payload into another's, counted once however many stripes run it.
	// Only tests read it.
	folds int
}

type decRow struct {
	coeff   []byte
	payload []byte
	lo      int // coeff[:lo] is zero
	pivot   int // last nonzero column: coeff[pivot] == 1, coeff[pivot+1:] zero
}

// payloadOp is one recorded payload fold: add v times row's payload.
type payloadOp struct {
	row int
	v   byte
}

// decoderChunkRows is how many rows the decoder's arena allocates at a
// time: a decode that stops after a few levels pays for the rows it used,
// not for numSymbols of them.
const decoderChunkRows = 64

// NewDecoder returns a decoder over numSymbols unknowns with payloads of
// payloadLen bytes. payloadLen may be zero when only rank/decodability is
// of interest (as in the Monte-Carlo experiments).
func NewDecoder(numSymbols, payloadLen int) (*Decoder, error) {
	if numSymbols <= 0 {
		return nil, fmt.Errorf("gfmat: NewDecoder: numSymbols %d, want > 0", numSymbols)
	}
	if payloadLen < 0 {
		return nil, fmt.Errorf("gfmat: NewDecoder: negative payload length %d", payloadLen)
	}
	d := &Decoder{
		numSymbols: numSymbols,
		payloadLen: payloadLen,
		pivotRow:   make([]int, numSymbols),
		scratch:    make([]byte, numSymbols),
	}
	d.arena.init(numSymbols+payloadLen, min(decoderChunkRows, numSymbols))
	for i := range d.pivotRow {
		d.pivotRow[i] = -1
	}
	return d, nil
}

// NumSymbols returns the number of unknown source symbols.
func (d *Decoder) NumSymbols() int { return d.numSymbols }

// PayloadLen returns the payload length in bytes.
func (d *Decoder) PayloadLen() int { return d.payloadLen }

// Rank returns the current rank of the accumulated coefficient matrix,
// i.e. the number of innovative coded blocks absorbed so far.
func (d *Decoder) Rank() int { return len(d.rows) }

// Complete reports whether all source symbols are decoded.
func (d *Decoder) Complete() bool { return len(d.rows) == d.numSymbols }

// Add absorbs one coded block. It returns true if the block was innovative
// (increased the rank) and false if it was linearly dependent on previously
// absorbed blocks. The inputs are copied; the caller may reuse the slices.
func (d *Decoder) Add(coeff, payload []byte) (bool, error) {
	return d.AddBounded(coeff, payload, d.numSymbols)
}

// AddBounded absorbs one coded block whose coefficients are known by
// construction to be zero at and beyond column bound — the level boundary
// of a PLC block, or NumSymbols when nothing is known. Only the first bound
// columns are copied and scanned, which is what makes a low-level PLC
// block cost O(level prefix) instead of O(K).
//
// The bound is a caller promise, not re-checked here: a nonzero coefficient
// at or beyond bound silently corrupts the decoding. Callers that cannot
// guarantee the invariant must use Add, which assumes nothing.
func (d *Decoder) AddBounded(coeff, payload []byte, bound int) (bool, error) {
	if len(coeff) != d.numSymbols {
		return false, fmt.Errorf("%w: coefficient vector length %d, want %d",
			ErrDimensionMismatch, len(coeff), d.numSymbols)
	}
	if len(payload) != d.payloadLen {
		return false, fmt.Errorf("%w: payload length %d, want %d",
			ErrDimensionMismatch, len(payload), d.payloadLen)
	}
	if bound < 0 || bound > d.numSymbols {
		return false, fmt.Errorf("%w: boundary %d outside [0, %d]",
			ErrDimensionMismatch, bound, d.numSymbols)
	}
	copy(d.scratch[:bound], coeff[:bound])
	return d.eliminate(payload, 0, bound)
}

// AddSparse absorbs one coded block given as a sparse coefficient vector:
// strictly increasing positions idx with values val (zeros among the
// values are tolerated and ignored). The block is never densified by the
// caller — the decoder scatters the entries into its own scratch row and
// eliminates over [idx[0], idx[last]+1) only, so a block with d nonzeros
// in a width-w band costs O(w) instead of O(numSymbols) before any pivot
// rows fold in. An empty vector is linearly dependent by definition.
func (d *Decoder) AddSparse(idx []uint32, val, payload []byte) (bool, error) {
	if len(idx) != len(val) {
		return false, fmt.Errorf("%w: %d sparse indices with %d values",
			ErrDimensionMismatch, len(idx), len(val))
	}
	if len(payload) != d.payloadLen {
		return false, fmt.Errorf("%w: payload length %d, want %d",
			ErrDimensionMismatch, len(payload), d.payloadLen)
	}
	prev := -1
	for _, j := range idx {
		if int(j) <= prev || int(j) >= d.numSymbols {
			return false, fmt.Errorf("%w: sparse index %d (after %d) outside strictly increasing [0, %d)",
				ErrDimensionMismatch, j, prev, d.numSymbols)
		}
		prev = int(j)
	}
	if len(idx) == 0 {
		return false, nil // zero vector: linearly dependent, payload skipped
	}
	gf256.ScatterAt(d.scratch, idx, val)
	return d.eliminate(payload, int(idx[0]), int(idx[len(idx)-1])+1)
}

// eliminate reduces the block staged in scratch — nonzero only within
// [lo, hi) — commits it if innovative, applies its payload work, and
// solves whatever prefix it made decodable. Shared tail of AddBounded and
// AddSparse.
func (d *Decoder) eliminate(payload []byte, lo, hi int) (bool, error) {
	d.ops = d.ops[:0]
	pivot, lo := d.reduce(lo, hi)
	if pivot < 0 {
		return false, nil // linearly dependent; the payload is never touched
	}

	c := d.scratch
	lo = gf256.NextNonzero(c[:pivot], lo) // tightest span the data allows
	inv, err := gf256.Inv(c[pivot])
	if err != nil {
		return false, fmt.Errorf("gfmat: normalize pivot: %w", err)
	}
	gf256.ScaleInPlace(c[lo:pivot+1], inv)

	// Commit: the arena row arrives zeroed, so only the span is copied, and
	// the scratch is left all zero for the next call.
	if cap(d.rows) == 0 {
		d.rows = make([]decRow, 0, d.numSymbols)
	}
	row := d.arena.alloc()
	rc := row[:d.numSymbols:d.numSymbols]
	rp := row[d.numSymbols:]
	copy(rc[lo:pivot+1], c[lo:pivot+1])
	clear(c[lo : pivot+1])
	d.pivotRow[pivot] = len(d.rows)
	d.rows = append(d.rows, decRow{coeff: rc, payload: rp, lo: lo, pivot: pivot})
	if lo == pivot {
		d.solved++
	}
	if d.payloadLen > 0 {
		d.fold(rp, payload, inv)
	}

	end := d.decodedPrefix
	for end < d.numSymbols && d.pivotRow[end] >= 0 {
		end++
	}
	if end > d.decodedPrefix {
		d.solveAdvance(d.decodedPrefix, end)
		d.decodedPrefix = end
	}
	return true, nil
}

// solveGroup is how many rows of a prefix advance solveAdvance solves
// together. Each solved row's payload is then read once per group instead
// of once per row below it, while the group's own payloads stay in L1: at
// 4 KiB payloads 8 rows are 32 KiB, which with the source row fits a
// 48 KiB L1d. On a 2-vCPU Xeon with that cache, BenchmarkDecodePLCN512x4KiB
// took 21.8 ms solving row by row and 17.8 / 17.2 / 17.0 / 16.6 / 20.7 ms
// in groups of 2 / 4 / 6 / 8 / 12 (medians of 5 interleaved runs). Folding
// each source row into the whole group in one gf256.AddMulSlices call,
// which loads each source chunk once for all eight rows, together with
// c = 1 folds through the kernel, took it from 14.0 to 11.1 ms (medians
// of 8 alternating runs). It is also the most
// destinations one AddMulSlices call takes.
const solveGroup = 8

// solveAdvance turns the pivot rows of columns [p, e) into unit rows.
// Every column left of p has a unit row, so the rows form a unit
// lower-triangular system whose solve needs nothing reduced: row i's
// payload gains each solved row j < i times its entry at j. The payload
// folds run group by group (solveStripe), striped like fold with one
// fan-out for the whole advance, and the coefficients are cleared
// afterwards. The folds run in another order than one row at a time, but
// they are the same folds and GF(2^8) addition commutes, so the bytes and
// the fold count are the same too.
func (d *Decoder) solveAdvance(p, e int) {
	if d.payloadLen > 0 {
		if w := stripeWorkers(d.payloadLen); w > 1 {
			d.fanOut(w, func(lo, hi int) { d.solveStripe(p, e, lo, hi) })
		} else {
			d.solveStripe(p, e, 0, d.payloadLen)
		}
	}
	for i := p; i < e; i++ {
		r := &d.rows[d.pivotRow[i]]
		if r.lo == i {
			continue // solved already: on arrival, or on demand past the prefix
		}
		if d.payloadLen > 0 {
			d.folds += gf256.CountNonzero(r.coeff[r.lo:i])
		}
		clear(r.coeff[r.lo:i])
		r.lo = i
		d.solved++
	}
}

// solveStripe runs solveAdvance's payload folds on bytes [lo, hi). For
// each group of solveGroup rows it first folds every unit row left of the
// group into the group rows, one source row per gf256.AddMulSlices call
// (a row without an entry there gets coefficient 0), and then solves the
// triangle inside the group the same way: once its rows left of it have
// been folded in, a group row is solved and is folded into the rows after
// it.
func (d *Decoder) solveStripe(p, e, lo, hi int) {
	var (
		group [solveGroup]*decRow
		dst   [solveGroup][]byte
		c     [solveGroup]byte
	)
	for g0 := p; g0 < e; g0 += solveGroup {
		g := group[:min(solveGroup, e-g0)]
		first := g0
		for k := range g {
			g[k] = &d.rows[d.pivotRow[g0+k]]
			dst[k] = g[k].payload[lo:hi]
			first = min(first, g[k].lo)
		}
		for j := first; j < g0; j++ {
			foldInto(g, dst[:len(g)], c[:len(g)], j, d.rows[d.pivotRow[j]].payload[lo:hi])
		}
		for k := range g[:len(g)-1] {
			foldInto(g[k+1:], dst[k+1:len(g)], c[k+1:len(g)], g0+k, dst[k])
		}
	}
}

// foldInto adds src times each row's entry at column j into that row's
// payload slice dst[k], in one gf256.AddMulSlices call, skipping it when
// no row has an entry there. c is scratch for the coefficients.
func foldInto(rows []*decRow, dst [][]byte, c []byte, j int, src []byte) {
	var nz byte
	for k, r := range rows {
		c[k] = r.coeff[j]
		nz |= c[k]
	}
	if nz != 0 {
		gf256.AddMulSlices(dst, src, c)
	}
}

// reduce folds pivot rows into the scratch row — nonzero only within
// [lo, hi) — from its right end leftwards: while the row's last nonzero
// column has a pivot row, that row, times the entry, is added to cancel
// it, which can only touch columns further left. It returns the first
// column met without a pivot row, or -1 when the row reduced to zero,
// together with the row's new low bound. Payload folds are recorded in
// d.ops, not applied.
func (d *Decoder) reduce(lo, hi int) (col, newLo int) {
	c := d.scratch
	for col = gf256.LastNonzero(c[:hi], lo); col >= lo; col = gf256.LastNonzero(c[:col], lo) {
		ri := d.pivotRow[col]
		if ri < 0 {
			return col, lo
		}
		r := &d.rows[ri]
		v := c[col]
		c[col] = 0
		if r.lo < col {
			gf256.AddMulSlice(c[r.lo:col], r.coeff[r.lo:col], v)
			lo = min(lo, r.lo)
		}
		if d.payloadLen > 0 {
			d.ops = append(d.ops, payloadOp{row: ri, v: v})
		}
	}
	return -1, lo
}

// solve reports whether symbol i, at or past the decoded prefix, is
// decodable, turning its pivot row into a unit row if it is. The row's
// part left of column i is reduced against the pivot rows to its left on
// the scratch row, and only a result with nothing left is committed,
// together with its payload fold.
func (d *Decoder) solve(i int) bool {
	ri := d.pivotRow[i]
	if ri < 0 {
		return false
	}
	r := &d.rows[ri]
	if r.lo == i {
		return true
	}
	d.ops = d.ops[:0]
	c := d.scratch
	copy(c[r.lo:i], r.coeff[r.lo:i])
	if col, lo := d.reduce(r.lo, i); col >= 0 {
		clear(c[lo : col+1])
		return false
	}
	clear(r.coeff[r.lo:i])
	r.lo = i
	d.solved++
	if d.payloadLen > 0 {
		d.fold(r.payload, nil, 1)
	}
	return true
}

// DecodedPrefix returns the length of the maximal prefix of source symbols
// that is fully decoded — the quantity progressive (PLC) decoding cares
// about. It is O(1), and the prefix's payloads are final when it is read.
func (d *Decoder) DecodedPrefix() int { return d.decodedPrefix }

// Decoded reports whether source symbol i is individually decoded.
// Symbols outside the decoded prefix can still be decoded, e.g. under SLC
// where levels decode independently; for those the answer is worked out
// on demand (and a solved row is kept).
func (d *Decoder) Decoded(i int) bool {
	if i < 0 || i >= d.numSymbols {
		return false
	}
	return i < d.decodedPrefix || d.solve(i)
}

// DecodedCount returns the number of individually decoded source symbols:
// the decoded prefix plus every symbol past it that Decoded confirms.
func (d *Decoder) DecodedCount() int {
	n := d.decodedPrefix
	for i := d.decodedPrefix; i < d.numSymbols; i++ {
		if d.solve(i) {
			n++
		}
	}
	return n
}

// SolvedRows returns how many rows are unit rows right now: the decoded
// prefix plus the symbols past it already confirmed by a query. It is
// O(1) and never works anything out, so a progress gauge read after every
// Add stays cheap; DecodedCount is the exact count.
func (d *Decoder) SolvedRows() int { return d.solved }

// Symbol returns the decoded payload of source symbol i, or an error if the
// symbol is not yet decoded. The returned slice is a copy.
func (d *Decoder) Symbol(i int) ([]byte, error) {
	if !d.Decoded(i) {
		return nil, fmt.Errorf("gfmat: symbol %d is not decoded (rank %d/%d)", i, d.Rank(), d.numSymbols)
	}
	out := make([]byte, d.payloadLen)
	copy(out, d.rows[d.pivotRow[i]].payload)
	return out, nil
}

// Symbols returns all decoded payloads, indexed by symbol; entries for
// undecoded symbols are nil.
func (d *Decoder) Symbols() [][]byte {
	out := make([][]byte, d.numSymbols)
	for i := range out {
		if s, err := d.Symbol(i); err == nil {
			out[i] = s
		}
	}
	return out
}

// CoefficientMatrix returns the reduced row-echelon form of the
// accumulated coefficient matrix, one row per innovative block absorbed —
// unique for the row space, so independent of arrival order and of how
// the decoder stores its rows. It is computed on a copy, mainly for tests
// and debugging.
func (d *Decoder) CoefficientMatrix() (*Matrix, error) {
	m, err := New(len(d.rows), d.numSymbols)
	if err != nil {
		return nil, fmt.Errorf("gfmat: CoefficientMatrix: %w", err)
	}
	for i, r := range d.rows {
		copy(m.Row(i), r.coeff)
	}
	m.rrefInPlace()
	return m, nil
}
