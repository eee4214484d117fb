package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// Tests for the structure-aware decode path at the scheme level: SLC
// sub-decoder aggregation under partial recovery, and bit-identical output
// whatever GOMAXPROCS the striped payload folds fan out over.

// TestSLCPartialLevelRecovery pins down the sub-decoder aggregation: with
// level 0's small system complete and level 1's underdetermined, exactly
// level 0's blocks must be reported decoded — by LevelDecoded, by
// DecodedBlocks, by Source and by Sources alike.
func TestSLCPartialLevelRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	levels, err := NewLevels(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	const plen = 6
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, plen)
		rng.Read(sources[i])
	}
	enc, err := NewEncoder(SLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(SLC, levels, plen)
	if err != nil {
		t.Fatal(err)
	}

	// Enough blocks to complete level 0 (3 unknowns), too few for level 1
	// (4 unknowns, 2 blocks). Retry level-0 encodes past any dependent
	// draws so the level really completes.
	for !dec.LevelDecoded(0) {
		b, err := enc.Encode(rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		b, err := enc.Encode(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Add(b); err != nil {
			t.Fatal(err)
		}
	}

	if !dec.LevelDecoded(0) {
		t.Fatal("level 0 not decoded")
	}
	if dec.LevelDecoded(1) {
		t.Fatal("underdetermined level 1 reported decoded")
	}
	if dec.Complete() {
		t.Fatal("decoder reported complete")
	}
	if got := dec.DecodedLevels(); got != 1 {
		t.Errorf("DecodedLevels = %d, want 1", got)
	}
	if got := dec.DecodedBlocks(); got != 3 {
		t.Errorf("DecodedBlocks = %d, want exactly level 0's 3", got)
	}
	for i := 0; i < 3; i++ {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatalf("Source(%d): %v", i, err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Errorf("Source(%d) decoded incorrectly", i)
		}
	}
	for i := 3; i < levels.Total(); i++ {
		if _, err := dec.Source(i); err == nil {
			t.Errorf("Source(%d) succeeded on an underdetermined level", i)
		}
	}
	all := dec.Sources()
	for i, s := range all {
		if (i < 3) != (s != nil) {
			t.Errorf("Sources()[%d] = %v, want non-nil only for level 0", i, s != nil)
		}
	}
}

// TestDecodeWorkersBitIdentical: for payloads above the striping threshold
// the decoded sources must be byte-identical whatever GOMAXPROCS, for every
// scheme.
func TestDecodeWorkersBitIdentical(t *testing.T) {
	const plen = 20 << 10 // above the gfmat striping threshold
	levels, err := NewLevels(2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, plen)
		rng.Read(sources[i])
	}

	for _, scheme := range []Scheme{RLC, SLC, PLC} {
		enc, err := NewEncoder(scheme, levels, sources)
		if err != nil {
			t.Fatal(err)
		}
		// A deterministic block set with per-level coverage plus slack, so
		// every scheme decodes completely from the same stream.
		var blocks []*CodedBlock
		for level := 0; level < levels.Count(); level++ {
			for i := 0; i < levels.Size(level)+1; i++ {
				b, err := enc.Encode(rng, level)
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, b)
			}
		}

		decode := func(procs int) [][]byte {
			setProcs(t, procs)
			dec, err := NewDecoder(scheme, levels, plen)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range blocks {
				if _, err := dec.Add(b); err != nil {
					t.Fatal(err)
				}
			}
			if !dec.Complete() {
				t.Fatalf("%v: decode incomplete (rank %d/%d)", scheme, dec.Rank(), levels.Total())
			}
			return dec.Sources()
		}

		base := decode(1)
		for i := range sources {
			if !bytes.Equal(base[i], sources[i]) {
				t.Fatalf("%v: source %d decoded incorrectly", scheme, i)
			}
		}
		for _, procs := range []int{2, 3, 4, 7} {
			got := decode(procs)
			for i := range base {
				if !bytes.Equal(base[i], got[i]) {
					t.Fatalf("%v: source %d differs between GOMAXPROCS 1 and %d", scheme, i, procs)
				}
			}
		}
	}
}
