package gfmat

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// FuzzDecoderEquivBatch drives random level-structured systems through
// every decode path this package offers — the incremental decoder
// (AddBounded), the dense RefDecoder, and the one-shot BatchDecoder in
// both bounded and dense form. The decoder must match the reference on
// every observable after every Add; a second decoder that is never queried
// until the end must match too (queries commit rows solved past the
// prefix, so the two take different fold paths to the same answers). Rank
// is additionally cross-checked against straight Gaussian elimination on
// the raw coefficient matrix, the ground truth none of the decoders share
// code with.
func FuzzDecoderEquivBatch(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4), uint8(3), false)
	f.Add(int64(7), uint8(1), uint8(1), uint8(0), uint8(1), true)
	f.Add(int64(42), uint8(3), uint8(2), uint8(8), uint8(5), false)
	f.Add(int64(99), uint8(4), uint8(4), uint8(2), uint8(0), true)
	// 4 PLC levels of 4 whose prefix stays empty until the 16th pivot
	// lands, then advances by all 16 columns: two solve groups.
	f.Add(int64(23), uint8(3), uint8(3), uint8(8), uint8(0), false)

	f.Fuzz(func(t *testing.T, seed int64, nLevelsRaw, perRaw, plenRaw, extraRaw uint8, slcShaped bool) {
		rng := rand.New(rand.NewSource(seed))
		nLevels := 1 + int(nLevelsRaw%4)
		per := 1 + int(perRaw%4)
		n := nLevels * per
		plen := int(plenRaw % 9)
		// extra controls redundancy: extra == 0 keeps some systems
		// underdetermined so the partial-decode states get compared too.
		rowsPerLevel := per + int(extraRaw%3)

		symbols := randomSymbols(rng, n, plen)
		blocks := randomLevelBlocks(rng, symbols, n, nLevels, plen, rowsPerLevel, slcShaped)

		structured, ref := newPair(t, n, plen)
		quiet, err := NewDecoder(n, plen)
		if err != nil {
			t.Fatal(err)
		}
		batchBounded, err := NewBatchDecoder(n, plen)
		if err != nil {
			t.Fatal(err)
		}
		batchDense, err := NewBatchDecoder(n, plen)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := New(len(blocks), n)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			addBoth(t, structured, ref, b)
			if _, err := quiet.AddBounded(b.coeff, b.payload, b.bound); err != nil {
				t.Fatal(err)
			}
			if quiet.Rank() != ref.Rank() || quiet.DecodedPrefix() != ref.DecodedPrefix() {
				t.Fatalf("block %d: unqueried rank/prefix %d/%d, reference %d/%d",
					i, quiet.Rank(), quiet.DecodedPrefix(), ref.Rank(), ref.DecodedPrefix())
			}
			compareDecoders(t, structured, ref, fmt.Sprintf("after block %d", i))
			if err := batchBounded.AddBounded(b.coeff, b.payload, b.bound); err != nil {
				t.Fatal(err)
			}
			if err := batchDense.Add(b.coeff, b.payload); err != nil {
				t.Fatal(err)
			}
			copy(raw.Row(i), b.coeff)
		}
		compareDecoders(t, quiet, ref, "unqueried decoder")
		if structured.Rank() != raw.Rank() {
			t.Fatalf("rank: incremental %d, ground truth %d", structured.Rank(), raw.Rank())
		}
		for i := 0; i < n; i++ {
			if !structured.Decoded(i) {
				continue
			}
			if s, _ := structured.Symbol(i); !bytes.Equal(s, symbols[i]) {
				t.Fatalf("symbol %d: decoded value differs from the source", i)
			}
		}

		// The batch solvers are all-or-nothing: when the incremental decoder
		// completed they must both solve to the same symbols; otherwise both
		// must refuse.
		sb, errB := batchBounded.Solve()
		sd, errD := batchDense.Solve()
		if (errB == nil) != (errD == nil) {
			t.Fatalf("batch solvers disagree: bounded err %v, dense err %v", errB, errD)
		}
		if structured.Complete() != (errB == nil) {
			t.Fatalf("incremental complete = %v but batch solve err = %v", structured.Complete(), errB)
		}
		if errB == nil {
			for i := 0; i < n; i++ {
				if !bytes.Equal(sb[i], sd[i]) || !bytes.Equal(sb[i], symbols[i]) {
					t.Fatalf("batch symbol %d: bounded/dense/truth disagree", i)
				}
			}
		}
	})
}
