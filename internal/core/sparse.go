package core

import (
	"fmt"

	"repro/internal/gf256"
)

// SparseCoeff is a coefficient vector in canonical sparse form: the dense
// length plus the strictly increasing positions of its nonzero entries and
// their values. It is the representation predist's O(ln N) dissemination
// vectors, WithSparsity and the chunked encoder produce, the v3 wire
// encoding ships, and gfmat.Decoder.AddSparse consumes — end to end
// without ever materializing the dense vector on the hot path.
//
// Canonical means: Idx strictly increasing, every Idx < Len, len(Idx) ==
// len(Val), and every Val nonzero. All producers in this package emit
// canonical vectors; Validate checks the invariant for vectors arriving
// from outside.
type SparseCoeff struct {
	Len int      // dense vector length (the generation size)
	Idx []uint32 // strictly increasing positions of nonzero entries
	Val []byte   // values at those positions, all nonzero
}

// SparsifyCoeff converts a dense coefficient vector to canonical sparse
// form.
func SparsifyCoeff(dense []byte) *SparseCoeff {
	s := &SparseCoeff{Len: len(dense)}
	nnz := 0
	for _, v := range dense {
		if v != 0 {
			nnz++
		}
	}
	if nnz > 0 {
		s.Idx = make([]uint32, 0, nnz)
		s.Val = make([]byte, 0, nnz)
		for j, v := range dense {
			if v != 0 {
				s.Idx = append(s.Idx, uint32(j))
				s.Val = append(s.Val, v)
			}
		}
	}
	return s
}

// Validate checks the canonical-form invariant.
func (s *SparseCoeff) Validate() error {
	if s.Len < 0 {
		return fmt.Errorf("core: sparse coeff: negative length %d", s.Len)
	}
	if len(s.Idx) != len(s.Val) {
		return fmt.Errorf("core: sparse coeff: %d indices with %d values", len(s.Idx), len(s.Val))
	}
	prev := -1
	for i, j := range s.Idx {
		if int(j) <= prev || int(j) >= s.Len {
			return fmt.Errorf("core: sparse coeff: index %d (after %d) outside strictly increasing [0, %d)", j, prev, s.Len)
		}
		if s.Val[i] == 0 {
			return fmt.Errorf("core: sparse coeff: zero value at index %d", j)
		}
		prev = int(j)
	}
	return nil
}

// NNZ returns the number of nonzero entries.
func (s *SparseCoeff) NNZ() int { return len(s.Idx) }

// Support returns the tight support [lo, hi) of the vector — for a
// canonical vector, Idx[0] and Idx[last]+1. The zero vector has support
// [0, 0).
func (s *SparseCoeff) Support() (lo, hi int) {
	if len(s.Idx) == 0 {
		return 0, 0
	}
	return int(s.Idx[0]), int(s.Idx[len(s.Idx)-1]) + 1
}

// Dense materializes the dense coefficient vector. The result is a fresh
// slice — intended for oracles, rank computations and tests, not the hot
// path.
func (s *SparseCoeff) Dense() []byte {
	out := make([]byte, s.Len)
	gf256.ScatterAt(out, s.Idx, s.Val)
	return out
}

// Clone returns a deep copy.
func (s *SparseCoeff) Clone() *SparseCoeff {
	c := &SparseCoeff{Len: s.Len}
	if s.Idx != nil {
		c.Idx = append([]uint32(nil), s.Idx...)
	}
	if s.Val != nil {
		c.Val = append([]byte(nil), s.Val...)
	}
	return c
}
