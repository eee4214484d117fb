package gfmat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Tests for the sparse add path: AddSparse must be observationally
// identical to the dense RefDecoder after every Add for any density, and
// must reject
// malformed index vectors instead of corrupting the elimination.

// sparsify converts a dense vector into its canonical sparse form.
func sparsify(coeff []byte) (idx []uint32, val []byte) {
	for j, v := range coeff {
		if v != 0 {
			idx = append(idx, uint32(j))
			val = append(val, v)
		}
	}
	return idx, val
}

// randomDensityBlocks generates blocks over n symbols whose nonzero
// pattern is either a contiguous band of the given width (bandWidth > 0)
// or i.i.d. with the given per-column density.
func randomDensityBlocks(rng *rand.Rand, symbols [][]byte, n, plen, count, bandWidth int, density float64) []levelBlock {
	blocks := make([]levelBlock, 0, count)
	for r := 0; r < count; r++ {
		coeff := make([]byte, n)
		if bandWidth > 0 {
			w := bandWidth
			if w > n {
				w = n
			}
			start := rng.Intn(n - w + 1)
			for j := start; j < start+w; j++ {
				coeff[j] = byte(1 + rng.Intn(255))
			}
		} else {
			for j := range coeff {
				if rng.Float64() < density {
					coeff[j] = byte(1 + rng.Intn(255))
				}
			}
		}
		blocks = append(blocks, levelBlock{coeff: coeff, payload: encodeWith(coeff, symbols, plen), bound: n})
	}
	return blocks
}

// addSparseBoth feeds one block to a Decoder through AddSparse and to
// its RefDecoder oracle densely, and fails unless they agree on whether
// it was innovative.
func addSparseBoth(t *testing.T, d *Decoder, ref *RefDecoder, b levelBlock) {
	t.Helper()
	idx, val := sparsify(b.coeff)
	i1, err := d.AddSparse(idx, val, b.payload)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := ref.Add(b.coeff, b.payload)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Fatalf("innovation: sparse %v, reference %v", i1, i2)
	}
}

func TestAddSparseMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		n, plen, bandWidth int
		density            float64
	}{
		{n: 24, plen: 8, density: 0.1},
		{n: 24, plen: 8, density: 0.5},
		{n: 24, plen: 0, density: 1.0},
		{n: 40, plen: 5, bandWidth: 6},
		{n: 40, plen: 5, bandWidth: 1},
		{n: 7, plen: 3, density: 0.3},
	}
	for ci, tc := range cases {
		symbols := randomSymbols(rng, tc.n, tc.plen)
		blocks := randomDensityBlocks(rng, symbols, tc.n, tc.plen, 2*tc.n, tc.bandWidth, tc.density)
		sparse, dense := newPair(t, tc.n, tc.plen)
		for bi, b := range blocks {
			addSparseBoth(t, sparse, dense, b)
			compareDecoders(t, sparse, dense, fmt.Sprintf("case %d block %d", ci, bi))
		}
		for i := 0; i < tc.n; i++ {
			if sparse.Decoded(i) {
				s, err := sparse.Symbol(i)
				if err != nil {
					t.Fatal(err)
				}
				if tc.plen > 0 && string(s) != string(symbols[i]) {
					t.Fatalf("case %d: symbol %d decoded wrong", ci, i)
				}
			}
		}
	}
}

// TestAddSparseInterleaved mixes all three add paths on one decoder — the
// representations must compose, since real decode feeds see dense v1
// frames and sparse v3 frames of the same generation interleaved.
func TestAddSparseInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n, plen := 30, 6
	symbols := randomSymbols(rng, n, plen)
	blocks := randomDensityBlocks(rng, symbols, n, plen, 3*n, 0, 0.3)
	mixed, oracle := newPair(t, n, plen)
	for bi, b := range blocks {
		var i1 bool
		var err error
		switch bi % 3 {
		case 0:
			idx, val := sparsify(b.coeff)
			i1, err = mixed.AddSparse(idx, val, b.payload)
		case 1:
			i1, err = mixed.AddBounded(b.coeff, b.payload, b.bound)
		default:
			i1, err = mixed.Add(b.coeff, b.payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		i2, err := oracle.Add(b.coeff, b.payload)
		if err != nil {
			t.Fatal(err)
		}
		if i1 != i2 {
			t.Fatalf("block %d: innovation mixed %v, oracle %v", bi, i1, i2)
		}
		compareDecoders(t, mixed, oracle, fmt.Sprintf("after block %d", bi))
	}
}

func TestAddSparseValidation(t *testing.T) {
	d, err := NewDecoder(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pay := []byte{1, 2}
	cases := []struct {
		name string
		idx  []uint32
		val  []byte
		pay  []byte
	}{
		{"length mismatch", []uint32{1, 2}, []byte{5}, pay},
		{"index out of range", []uint32{8}, []byte{5}, pay},
		{"index far out of range", []uint32{1 << 30}, []byte{5}, pay},
		{"duplicate index", []uint32{3, 3}, []byte{5, 6}, pay},
		{"decreasing index", []uint32{4, 2}, []byte{5, 6}, pay},
		{"payload mismatch", []uint32{1}, []byte{5}, []byte{9}},
	}
	for _, tc := range cases {
		if _, err := d.AddSparse(tc.idx, tc.val, tc.pay); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if d.Rank() != 0 {
		t.Fatalf("rejected adds changed rank to %d", d.Rank())
	}
	// The empty vector is a legal, linearly dependent block.
	innovative, err := d.AddSparse(nil, nil, pay)
	if err != nil || innovative {
		t.Fatalf("empty sparse vector: innovative=%v err=%v", innovative, err)
	}
	// Explicit zero values are tolerated: equivalent to the zero vector.
	innovative, err = d.AddSparse([]uint32{2, 5}, []byte{0, 0}, pay)
	if err != nil || innovative {
		t.Fatalf("all-zero sparse values: innovative=%v err=%v", innovative, err)
	}
}

// FuzzSparseDenseEquiv drives random-density and banded systems through
// AddSparse and the dense RefDecoder and asserts they agree on every
// observable after every Add, with the raw-matrix rank as shared-nothing ground truth —
// the sparse analogue of FuzzDecoderEquivBatch.
func FuzzSparseDenseEquiv(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(4), uint8(64), uint8(0))
	f.Add(int64(2), uint8(9), uint8(0), uint8(255), uint8(0))
	f.Add(int64(3), uint8(32), uint8(3), uint8(0), uint8(5))
	f.Add(int64(4), uint8(5), uint8(8), uint8(10), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, plenRaw, densityRaw, bandRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%48)
		plen := int(plenRaw % 9)
		band := int(bandRaw % 9) // 0 = i.i.d. density, else band width
		density := float64(densityRaw) / 255
		symbols := randomSymbols(rng, n, plen)
		blocks := randomDensityBlocks(rng, symbols, n, plen, n+n/2+1, band, density)

		sparse, dense := newPair(t, n, plen)
		raw, err := New(len(blocks), n)
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range blocks {
			addSparseBoth(t, sparse, dense, b)
			compareDecoders(t, sparse, dense, fmt.Sprintf("after block %d", bi))
			copy(raw.Row(bi), b.coeff)
		}
		if sparse.Rank() != raw.Rank() {
			t.Fatalf("rank: sparse %d, ground truth %d", sparse.Rank(), raw.Rank())
		}
		for i := 0; i < n; i++ {
			if plen > 0 && sparse.Decoded(i) {
				s, err := sparse.Symbol(i)
				if err != nil {
					t.Fatal(err)
				}
				if string(s) != string(symbols[i]) {
					t.Fatalf("symbol %d decoded wrong", i)
				}
			}
		}
	})
}
