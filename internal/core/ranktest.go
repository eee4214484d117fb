package core

import (
	"fmt"

	"repro/internal/gf256"
	"repro/internal/gfmat"
)

// RankTest tells, from coefficients alone, how many leading priority
// levels a stream of one object's coded blocks decodes — without the
// object's geometry and without touching a payload. It is the stopping
// rule of a read that asks a few owners first: the read can stop once
// the levels it needs have full rank.
//
// It learns N from the first block and each level's support from the
// level's own dense blocks. Every encoder coefficient is nonzero across
// the block's support, so an encoder block's nonzero span is its level's
// support; a recombined block's may be narrower (its edge coefficients
// can cancel, and a recombination of sparse blocks covers what they
// happened to). So a span counts only where it is known to be an encoder
// block's:
//
//   - Where a seed frame is smaller than the dense one (N > 17 keyed,
//     N > 25 key-less), every fresh dense block travels as one, so only
//     blocks that carry their seed, which proves their span, count.
//   - Where it is not, encoder blocks arrive as plain dense vectors, and
//     the union of the level's nonzero spans counts, unless the stream
//     held a sparse block: the object is then sparse-coded, its dense
//     blocks are recombinations, and no level is decided.
//
// A sparse or chunked block adds rank but never defines a span, so a
// level seen only through such blocks stays undecided. A level counts as
// decoded when its span counts and every column of it is solved;
// under the support rules of all three schemes that implies Decoder
// decodes it too (PLC's prefix reaches the span's end, SLC's level-local
// system has full rank, RLC's decode is complete). In the dense-frame
// range the one way a counted span falls short of the support is a level
// seen only through recombinations of dense blocks whose coefficients all
// cancel at the same edge column, about 255^-k likely for k of them.
//
// RankTest satisfies the collect package's Decoder. The zero value is
// ready to use.
type RankTest struct {
	dec *gfmat.Decoder
	// seedFrames is whether fresh dense blocks of the stream's object
	// travel as seed frames; sparse is whether a sparse block was seen.
	seedFrames, sparse bool
	spans              []rankSpan // per level; hi == 0 while none counted
	// levels caches DecodedLevels; stale is set whenever an add could
	// change it.
	levels int
	stale  bool
}

// rankSpan is a level's support [lo, hi) as its blocks show it.
type rankSpan struct{ lo, hi int }

// widen grows s to cover [lo, hi) and reports whether it changed.
func (s *rankSpan) widen(lo, hi int) bool {
	if s.hi == 0 {
		*s = rankSpan{lo, hi}
		return true
	}
	if lo >= s.lo && hi <= s.hi {
		return false
	}
	s.lo, s.hi = min(s.lo, lo), max(s.hi, hi)
	return true
}

// Add absorbs one block's coefficients and reports whether they raised
// the rank. A block whose coefficient count differs from the first
// block's, or whose level no N-column code can have, is rejected.
func (t *RankTest) Add(b *CodedBlock) (bool, error) {
	if b == nil {
		return false, fmt.Errorf("core: nil coded block")
	}
	n := b.CoeffLen()
	if t.dec == nil {
		dec, err := gfmat.NewDecoder(n, 0)
		if err != nil {
			return false, fmt.Errorf("core: rank test: %w", err)
		}
		t.dec = dec
		t.seedFrames = seedFrameFits(b.Object, n)
	}
	if n != t.dec.NumSymbols() {
		return false, fmt.Errorf("core: rank test: coefficient vector length %d, want %d", n, t.dec.NumSymbols())
	}
	if b.Level < 0 || b.Level >= n {
		return false, fmt.Errorf("core: rank test: level %d outside a %d-column code", b.Level, n)
	}
	if sp := b.SpCoeff; sp != nil {
		innovative, err := t.dec.AddSparse(sp.Idx, sp.Val, nil)
		t.stale = t.stale || innovative || !t.sparse
		t.sparse = true
		return innovative, err
	}
	lo := gf256.NextNonzero(b.Coeff, 0)
	if lo == n {
		return false, nil // a zero vector carries nothing
	}
	hi := gf256.LastNonzero(b.Coeff, lo) + 1
	innovative, err := t.dec.AddBounded(b.Coeff, nil, hi)
	if err != nil {
		return false, err
	}
	if !t.seedFrames || (b.seeded && seedMatches(b.Coeff[lo:hi], b.seed)) {
		for len(t.spans) <= b.Level {
			t.spans = append(t.spans, rankSpan{})
		}
		t.stale = t.spans[b.Level].widen(lo, hi) || t.stale
	}
	t.stale = t.stale || innovative
	return innovative, nil
}

// DecodedLevels returns how many leading levels have a counted span with
// every column solved. It is O(1) between innovative adds.
func (t *RankTest) DecodedLevels() int {
	if !t.stale {
		return t.levels
	}
	t.stale = false
	k := 0
	if t.seedFrames || !t.sparse {
		for k < len(t.spans) && t.solved(t.spans[k]) {
			k++
		}
	}
	t.levels = k
	return k
}

// solved reports whether a counted span has every column solved.
func (t *RankTest) solved(s rankSpan) bool {
	if s.hi == 0 {
		return false
	}
	for i := max(s.lo, t.dec.DecodedPrefix()); i < s.hi; i++ {
		if !t.dec.Decoded(i) {
			return false
		}
	}
	return true
}

// Complete reports whether every column is solved.
func (t *RankTest) Complete() bool { return t.dec != nil && t.dec.Complete() }

// DecodedBlocks returns how many columns are solved.
func (t *RankTest) DecodedBlocks() int {
	if t.dec == nil {
		return 0
	}
	return t.dec.DecodedCount()
}
