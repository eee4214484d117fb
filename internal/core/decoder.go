package core

import (
	"errors"
	"fmt"

	"repro/internal/gfmat"
)

// ErrObjectMismatch reports a block offered to a decoder that is decoding
// another object: a decoder decodes one object, the one named by the
// first block it accepted, and mixing in another object's blocks would
// decode wrong bytes.
var ErrObjectMismatch = errors.New("core: block belongs to another object")

// Decoder is the partial decoder of Sec. 3.2. For RLC and PLC it maintains
// a single incremental elimination over all N source blocks
// (gfmat.Decoder), so decoded prefixes pop out progressively. For SLC it
// maintains one independent elimination per level, since the levels are
// coded separately and decode independently.
type Decoder struct {
	scheme     Scheme
	levels     *Levels
	payloadLen int

	global   *gfmat.Decoder   // RLC, PLC
	perLevel []*gfmat.Decoder // SLC
	received int
	object   ObjectID // the object of every accepted block, once received > 0

	// spScratch is the reusable buffer SLC sparse adds shift their indices
	// into level-local coordinates through.
	spScratch []uint32
}

// NewDecoder constructs a decoder for the given scheme and level structure.
func NewDecoder(scheme Scheme, levels *Levels, payloadLen int) (*Decoder, error) {
	if !scheme.Valid() {
		return nil, fmt.Errorf("core: invalid scheme %v", scheme)
	}
	if levels == nil {
		return nil, fmt.Errorf("core: nil levels")
	}
	if payloadLen < 0 {
		return nil, fmt.Errorf("core: negative payload length %d", payloadLen)
	}
	d := &Decoder{scheme: scheme, levels: levels, payloadLen: payloadLen}
	if scheme == SLC {
		d.perLevel = make([]*gfmat.Decoder, levels.Count())
		for k := range d.perLevel {
			ld, err := gfmat.NewDecoder(levels.Size(k), payloadLen)
			if err != nil {
				return nil, fmt.Errorf("core: level %d decoder: %w", k, err)
			}
			d.perLevel[k] = ld
		}
		return d, nil
	}
	g, err := gfmat.NewDecoder(levels.Total(), payloadLen)
	if err != nil {
		return nil, fmt.Errorf("core: global decoder: %w", err)
	}
	d.global = g
	return d, nil
}

// Scheme returns the decoder's coding scheme.
func (d *Decoder) Scheme() Scheme { return d.scheme }

// Levels returns the decoder's priority structure.
func (d *Decoder) Levels() *Levels { return d.levels }

// Received returns the number of coded blocks Add accepted, innovative or
// not — the paper's M. Rejected blocks do not count.
func (d *Decoder) Received() int { return d.received }

// Add absorbs one coded block, returning whether it was innovative. The
// block's coefficient vector must be zero outside the support its scheme
// and level dictate; a violating block is rejected with an error, since it
// indicates corruption or a scheme mismatch. So is a block of another
// object than the first accepted block's (ErrObjectMismatch).
func (d *Decoder) Add(b *CodedBlock) (bool, error) {
	if b == nil {
		return false, fmt.Errorf("core: nil coded block")
	}
	if d.received > 0 && b.Object != d.object {
		return false, fmt.Errorf("%w: %v block offered to the decoder of %v", ErrObjectMismatch, b.Object, d.object)
	}
	if b.CoeffLen() != d.levels.Total() {
		return false, fmt.Errorf("core: coefficient vector length %d, want %d", b.CoeffLen(), d.levels.Total())
	}
	lo, hi, err := d.scheme.Support(d.levels, b.Level)
	if err != nil {
		return false, err
	}
	if sp := b.SpCoeff; sp != nil {
		return d.addSparse(b, sp, lo, hi)
	}
	for j, c := range b.Coeff {
		if c != 0 && (j < lo || j >= hi) {
			return false, fmt.Errorf("core: %v level-%d block has nonzero coefficient at column %d outside support [%d, %d)",
				d.scheme, b.Level, j, lo, hi)
		}
	}
	if d.scheme == SLC {
		innovative, err := d.perLevel[b.Level].Add(b.Coeff[lo:hi], b.Payload)
		if err != nil {
			return false, fmt.Errorf("core: SLC level %d: %w", b.Level, err)
		}
		d.accept(b)
		return innovative, nil
	}
	// The support check above just proved the coefficients vanish at and
	// beyond hi, so the elimination only needs the first hi columns — for
	// PLC that is the block's level boundary b_k, the structural invariant
	// the level-truncated decode path exploits.
	innovative, err := d.global.AddBounded(b.Coeff, b.Payload, hi)
	if err != nil {
		return false, fmt.Errorf("core: %v decode: %w", d.scheme, err)
	}
	d.accept(b)
	return innovative, nil
}

// accept records a block the elimination took: it counts toward Received
// and, the first time, pins the decoder to its object. A block refused
// anywhere, down to gfmat's payload and index checks, does neither.
func (d *Decoder) accept(b *CodedBlock) {
	d.received++
	d.object = b.Object
}

// addSparse absorbs a block that carries its coefficients sparsely,
// without densifying: the support check is O(nnz), and the elimination
// enters through gfmat's AddSparse scatter path. Structural validation
// (strictly increasing indices in range) happens one layer down.
func (d *Decoder) addSparse(b *CodedBlock, sp *SparseCoeff, lo, hi int) (bool, error) {
	if len(sp.Idx) != len(sp.Val) {
		return false, fmt.Errorf("core: sparse block has %d indices with %d values", len(sp.Idx), len(sp.Val))
	}
	for i, j := range sp.Idx {
		if sp.Val[i] != 0 && (int(j) < lo || int(j) >= hi) {
			return false, fmt.Errorf("core: %v level-%d block has nonzero coefficient at column %d outside support [%d, %d)",
				d.scheme, b.Level, j, lo, hi)
		}
	}
	if d.scheme == SLC {
		// Shift into level-local coordinates through a reusable scratch;
		// the per-level decoder copies what it keeps.
		idx := d.spScratch[:0]
		for _, j := range sp.Idx {
			idx = append(idx, j-uint32(lo))
		}
		d.spScratch = idx
		innovative, err := d.perLevel[b.Level].AddSparse(idx, sp.Val, b.Payload)
		if err != nil {
			return false, fmt.Errorf("core: SLC level %d: %w", b.Level, err)
		}
		d.accept(b)
		return innovative, nil
	}
	innovative, err := d.global.AddSparse(sp.Idx, sp.Val, b.Payload)
	if err != nil {
		return false, fmt.Errorf("core: %v decode: %w", d.scheme, err)
	}
	d.accept(b)
	return innovative, nil
}

// Rank returns the total number of innovative blocks absorbed.
func (d *Decoder) Rank() int {
	if d.scheme == SLC {
		r := 0
		for _, ld := range d.perLevel {
			r += ld.Rank()
		}
		return r
	}
	return d.global.Rank()
}

// Complete reports whether every source block is decoded.
func (d *Decoder) Complete() bool {
	if d.scheme == SLC {
		for _, ld := range d.perLevel {
			if !ld.Complete() {
				return false
			}
		}
		return true
	}
	return d.global.Complete()
}

// LevelDecoded reports whether every source block of level k is decoded.
func (d *Decoder) LevelDecoded(k int) bool {
	if d.levels.ValidLevel(k) != nil {
		return false
	}
	if d.scheme == SLC {
		return d.perLevel[k].Complete()
	}
	return d.global.DecodedPrefix() >= d.levels.CumSize(k)
}

// DecodedLevels returns the strict-priority random variable X of Sec. 3.3:
// the number of consecutive levels, starting from the most important, that
// are fully decoded.
func (d *Decoder) DecodedLevels() int {
	k := 0
	for k < d.levels.Count() && d.LevelDecoded(k) {
		k++
	}
	return k
}

// DecodedBlocks returns the number of individually decoded source blocks,
// including blocks beyond the decoded prefix (under SLC, whole levels;
// under RLC and PLC, any the rows received pin down). Blocks past the
// prefix are worked out on demand, so this is not a per-Add call.
func (d *Decoder) DecodedBlocks() int {
	if d.scheme == SLC {
		n := 0
		for _, ld := range d.perLevel {
			n += ld.DecodedCount()
		}
		return n
	}
	return d.global.DecodedCount()
}

// Source returns the decoded payload of source block i.
func (d *Decoder) Source(i int) ([]byte, error) {
	if i < 0 || i >= d.levels.Total() {
		return nil, fmt.Errorf("core: source index %d out of range [0, %d)", i, d.levels.Total())
	}
	if d.scheme == SLC {
		k, err := d.levels.LevelOf(i)
		if err != nil {
			return nil, err
		}
		lo, _ := d.levels.Span(k)
		payload, err := d.perLevel[k].Symbol(i - lo)
		if err != nil {
			return nil, fmt.Errorf("core: source %d (level %d): %w", i, k, err)
		}
		return payload, nil
	}
	payload, err := d.global.Symbol(i)
	if err != nil {
		return nil, fmt.Errorf("core: source %d: %w", i, err)
	}
	return payload, nil
}

// Sources returns all decoded payloads indexed by source block; undecoded
// entries are nil.
func (d *Decoder) Sources() [][]byte {
	out := make([][]byte, d.levels.Total())
	for i := range out {
		if s, err := d.Source(i); err == nil {
			out[i] = s
		}
	}
	return out
}
