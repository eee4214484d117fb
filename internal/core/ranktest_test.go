package core

import (
	"math/rand"
	"testing"
)

// TestRankTestNeverOutrunsDecoder feeds the same encoder stream to a
// RankTest and a Decoder, for every scheme at N = 16 (dense frames) and
// N = 64 (seed frames), in memory and after a wire round trip: the rank
// test never counts a level the decoder lacks, and once every level was
// seen it counts exactly the decoder's levels.
func TestRankTestNeverOutrunsDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, scheme := range []Scheme{PLC, SLC, RLC} {
		for _, n := range []int{16, 64} {
			for _, wire := range []bool{false, true} {
				levels, err := NewLevels(n/8, n/4, n/8, n/2)
				if err != nil {
					t.Fatal(err)
				}
				enc, err := NewEncoder(scheme, levels, nil)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := NewDecoder(scheme, levels, 0)
				if err != nil {
					t.Fatal(err)
				}
				var rt RankTest
				seen := make([]bool, levels.Count())
				for i := 0; i < 3*n; i++ {
					b, err := enc.Encode(rng, rng.Intn(levels.Count()))
					if err != nil {
						t.Fatal(err)
					}
					b.Object = 9
					if wire {
						b = wireTrip(t, b)
					}
					seen[b.Level] = true
					if _, err := dec.Add(b); err != nil {
						t.Fatal(err)
					}
					if _, err := rt.Add(b); err != nil {
						t.Fatal(err)
					}
					got, want := rt.DecodedLevels(), dec.DecodedLevels()
					allSeen := true
					for _, s := range seen {
						allSeen = allSeen && s
					}
					if got > want || (allSeen && got != want) {
						t.Fatalf("%v N=%d wire=%v after %d blocks: rank test counts %d levels, decoder %d (all seen: %v)",
							scheme, n, wire, i+1, got, want, allSeen)
					}
				}
				if rt.Complete() != dec.Complete() || rt.DecodedBlocks() != dec.DecodedBlocks() {
					t.Fatalf("%v N=%d: rank test solved %d columns, decoder %d", scheme, n, rt.DecodedBlocks(), dec.DecodedBlocks())
				}
			}
		}
	}
}

// wireTrip marshals b and parses it back, as a store read would.
func wireTrip(t *testing.T, b *CodedBlock) *CodedBlock {
	t.Helper()
	w, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out CodedBlock
	if err := out.UnmarshalBinary(w); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestRankTestSpansOnlyFromEncoderBlocks pins which blocks decide a
// level's span. A recombination of sparse blocks is dense but covers only
// what its inputs happened to, so it must not decide one: in the dense
// frame range because the stream showed a sparse block, and in the seed
// frame range because it carries no seed. A lone sparse stream decides
// nothing until it is complete.
func TestRankTestSpansOnlyFromEncoderBlocks(t *testing.T) {
	for _, n := range []int{16, 64} {
		levels, err := NewLevels(n/2, n/2)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := NewEncoder(PLC, levels, nil, WithSparsity(2))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		var rt RankTest
		prefix := func() int {
			if rt.dec == nil {
				return 0
			}
			return rt.dec.DecodedPrefix()
		}
		// Level 0 from sparse blocks until its columns are solved.
		var in []*CodedBlock
		for i := 0; i < 16*n && prefix() < n/2; i++ {
			b, err := sparse.Encode(rng, 0)
			if err != nil {
				t.Fatal(err)
			}
			b.Object = 9
			if _, err := rt.Add(wireTrip(t, b)); err != nil {
				t.Fatal(err)
			}
			in = append(in, b)
		}
		if prefix() < n/2 {
			t.Fatalf("N=%d: level 0 never solved", n)
		}
		if got := rt.DecodedLevels(); got != 0 {
			t.Fatalf("N=%d: sparse blocks decided %d levels", n, got)
		}
		// A recombination of them, filed as level 0, still decides nothing.
		rec, err := Recombine(rng, PLC, levels, in[:2])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Add(wireTrip(t, rec)); err != nil {
			t.Fatal(err)
		}
		if got := rt.DecodedLevels(); got != 0 {
			t.Fatalf("N=%d: a recombined block decided %d levels", n, got)
		}
	}
}
