package gfmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsNegative(t *testing.T) {
	if _, err := New(-1, 3); err == nil {
		t.Error("New(-1,3) succeeded, want error")
	}
	if _, err := New(3, -1); err == nil {
		t.Error("New(3,-1) succeeded, want error")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]byte{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Errorf("FromRows produced wrong layout:\n%s", m)
	}
	if _, err := FromRows([][]byte{{1, 2}, {3}}); err == nil {
		t.Error("ragged FromRows succeeded, want error")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Errorf("FromRows(nil) = %v, %v", empty, err)
	}
}

func TestFromRowsCopies(t *testing.T) {
	src := [][]byte{{1, 2}}
	m, err := FromRows(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Error("FromRows did not copy the input rows")
	}
}

// mulRef is an independent GF(2^8) multiply for cross-checking.
func mulRef(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a&0x80 != 0
		a <<= 1
		if carry {
			a ^= 0x1D
		}
		b >>= 1
	}
	return p
}

func TestRankSmallCases(t *testing.T) {
	cases := []struct {
		rows [][]byte
		want int
	}{
		{[][]byte{{0, 0}, {0, 0}}, 0},
		{[][]byte{{1, 2}, {2, 4}}, 1}, // row1 = 2*row0 in GF(2^8)
		{[][]byte{{1, 0}, {0, 1}}, 2},
		{[][]byte{{1, 2, 3}}, 1},
		{[][]byte{{5, 5}, {5, 5}}, 1},
	}
	for i, tc := range cases {
		m, err := FromRows(tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Rank(); got != tc.want {
			t.Errorf("case %d: rank = %d, want %d", i, got, tc.want)
		}
	}
}

func TestRankDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, _ := Random(rng, 5, 5)
	before := m.Clone()
	m.Rank()
	if !m.Equal(before) {
		t.Error("Rank mutated the matrix")
	}
}

func TestRandomSquareMatrixUsuallyFullRank(t *testing.T) {
	// Footnote 1 of the paper: with GF(2^8) coefficients, random square
	// matrices are invertible w.h.p. The probability of full rank is
	// prod_{i=1..n} (1 - 256^-i) ≈ 0.996. Check that at least 95 of 100
	// random 20x20 matrices have full rank.
	rng := rand.New(rand.NewSource(9))
	full := 0
	for trial := 0; trial < 100; trial++ {
		m, _ := Random(rng, 20, 20)
		if m.Rank() == 20 {
			full++
		}
	}
	if full < 95 {
		t.Errorf("only %d/100 random 20x20 matrices were full rank", full)
	}
}

func TestIsRREF(t *testing.T) {
	good, _ := FromRows([][]byte{
		{1, 0, 0, 5},
		{0, 1, 0, 6},
		{0, 0, 1, 7},
	})
	if !good.IsRREF() {
		t.Error("valid RREF rejected")
	}
	badPivot, _ := FromRows([][]byte{
		{2, 0},
		{0, 1},
	})
	if badPivot.IsRREF() {
		t.Error("pivot != 1 accepted as RREF")
	}
	badOrder, _ := FromRows([][]byte{
		{0, 1},
		{1, 0},
	})
	if badOrder.IsRREF() {
		t.Error("descending pivots accepted as RREF")
	}
	zeroMid, _ := FromRows([][]byte{
		{0, 0},
		{1, 0},
	})
	if zeroMid.IsRREF() {
		t.Error("zero row above nonzero row accepted as RREF")
	}
	dirtyCol, _ := FromRows([][]byte{
		{1, 3},
		{0, 1},
	})
	if dirtyCol.IsRREF() {
		t.Error("nonzero entry above a pivot accepted as RREF")
	}
}

func TestQuickRankBoundedByDims(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(8)
		cols := 1 + r.Intn(8)
		m, _ := Random(r, rows, cols)
		rank := m.Rank()
		min := rows
		if cols < min {
			min = cols
		}
		return rank >= 0 && rank <= min
	}, &quick.Config{MaxCount: 200, Rand: rng})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickRankInvariantUnderRowSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 2 + r.Intn(6)
		cols := 1 + r.Intn(8)
		m, _ := Random(r, rows, cols)
		rank := m.Rank()
		i, j := r.Intn(rows), r.Intn(rows)
		m.swapRows(i, j)
		return m.Rank() == rank
	}, &quick.Config{MaxCount: 200, Rand: rng})
	if err != nil {
		t.Error(err)
	}
}

func TestStringFormat(t *testing.T) {
	m, _ := FromRows([][]byte{{0x0a, 0xff}})
	if got, want := m.String(), "0a ff\n"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
