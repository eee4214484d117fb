// Package core implements the paper's contribution: priority random linear
// codes. It provides the priority-level structure (Sec. 2), the three
// coding schemes — baseline Random Linear Codes (RLC), Stacked Linear Codes
// (SLC) and Progressive Linear Codes (PLC) of Sec. 3.1 — their partial
// decoders (Sec. 3.2), priority distributions over coded-block levels, and
// the sparse O(ln N) coefficient variant of Sec. 4.
//
// Levels are 0-based in this API: level 0 is the most important. The
// paper's 1-based a_i and b_i correspond to Size(i-1) and CumSize(i-1).
package core

import (
	"fmt"
)

// Levels describes how the N source blocks partition into priority levels
// in descending importance: blocks [0, Size(0)) are level 0 (most
// important), the next Size(1) blocks are level 1, and so on.
//
// Levels is immutable after construction and safe for concurrent use.
type Levels struct {
	sizes []int // a_i
	cum   []int // b_i: cum[i] = sizes[0] + ... + sizes[i]
}

// NewLevels constructs a priority structure from per-level block counts.
// Every level must contain at least one block.
func NewLevels(sizes ...int) (*Levels, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("core: at least one priority level is required")
	}
	l := &Levels{
		sizes: make([]int, len(sizes)),
		cum:   make([]int, len(sizes)),
	}
	total := 0
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("core: level %d has size %d, want > 0", i, s)
		}
		total += s
		l.sizes[i] = s
		l.cum[i] = total
	}
	return l, nil
}

// UniformLevels returns n levels of perLevel blocks each.
func UniformLevels(n, perLevel int) (*Levels, error) {
	if n <= 0 || perLevel <= 0 {
		return nil, fmt.Errorf("core: UniformLevels(%d, %d): both arguments must be positive", n, perLevel)
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = perLevel
	}
	return NewLevels(sizes...)
}

// Count returns the number of priority levels n.
func (l *Levels) Count() int { return len(l.sizes) }

// Total returns the total number of source blocks N.
func (l *Levels) Total() int { return l.cum[len(l.cum)-1] }

// Size returns a_{i+1}, the number of source blocks in level i.
func (l *Levels) Size(i int) int { return l.sizes[i] }

// CumSize returns b_{i+1}, the number of source blocks in levels 0..i.
func (l *Levels) CumSize(i int) int { return l.cum[i] }

// Sizes returns a copy of the per-level block counts.
func (l *Levels) Sizes() []int {
	out := make([]int, len(l.sizes))
	copy(out, l.sizes)
	return out
}

// Span returns the half-open source-block index range [lo, hi) of level i.
func (l *Levels) Span(i int) (lo, hi int) {
	if i == 0 {
		return 0, l.cum[0]
	}
	return l.cum[i-1], l.cum[i]
}

// LevelOf returns the level containing source block index b, or an error
// if b is out of range.
func (l *Levels) LevelOf(b int) (int, error) {
	if b < 0 || b >= l.Total() {
		return 0, fmt.Errorf("core: block index %d out of range [0, %d)", b, l.Total())
	}
	// Binary search over the cumulative boundaries.
	lo, hi := 0, len(l.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if b < l.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// ValidLevel returns an error unless 0 <= k < Count().
func (l *Levels) ValidLevel(k int) error {
	if k < 0 || k >= l.Count() {
		return fmt.Errorf("core: level %d out of range [0, %d)", k, l.Count())
	}
	return nil
}

func (l *Levels) String() string {
	return fmt.Sprintf("Levels{n=%d, N=%d, sizes=%v}", l.Count(), l.Total(), l.sizes)
}
