package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gf256"
	"repro/internal/gfmat"
)

func encodeSet(t *testing.T, rng *rand.Rand, scheme Scheme, levels *Levels, sources [][]byte, count int) []*CodedBlock {
	t.Helper()
	enc, err := NewEncoder(scheme, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, NewUniformDistribution(levels.Count()), count)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func coeffRank(t *testing.T, blocks []*CodedBlock) int {
	t.Helper()
	rows := make([][]byte, len(blocks))
	for i, b := range blocks {
		rows[i] = b.Coeff
	}
	m, err := gfmat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m.Rank()
}

// TestRecombineProducesValidBlocks pins the compatibility rules: the
// output respects the scheme's support (the decoder's own validation
// accepts it) and carries the documented level.
func TestRecombineProducesValidBlocks(t *testing.T) {
	levels := mustLevels(t, 2, 3, 4)
	rng := rand.New(rand.NewSource(7))
	sources := randomSources(rng, levels.Total(), 24)
	for _, scheme := range []Scheme{RLC, SLC, PLC} {
		blocks := encodeSet(t, rng, scheme, levels, sources, 3*levels.Total())
		for trial := 0; trial < 20; trial++ {
			// SLC samples must share a level; PLC/RLC may mix.
			var sample []*CodedBlock
			if scheme == SLC {
				lvl := rng.Intn(levels.Count())
				for _, b := range blocks {
					if b.Level == lvl {
						sample = append(sample, b)
					}
				}
			} else {
				for _, i := range rng.Perm(len(blocks))[:3] {
					sample = append(sample, blocks[i])
				}
			}
			if len(sample) == 0 {
				continue
			}
			nb, err := Recombine(rng, scheme, levels, sample)
			if err != nil {
				t.Fatalf("%v: recombine: %v", scheme, err)
			}
			wantLevel := sample[0].Level
			for _, b := range sample {
				if b.Level > wantLevel {
					wantLevel = b.Level
				}
			}
			if nb.Level != wantLevel {
				t.Fatalf("%v: recombined level %d, want max input level %d", scheme, nb.Level, wantLevel)
			}
			dec, err := NewDecoder(scheme, levels, 24)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dec.Add(nb); err != nil {
				t.Fatalf("%v: decoder rejects recombined block: %v", scheme, err)
			}
			if gf256.IsZero(nb.Coeff) {
				t.Fatalf("%v: recombination of an independent sample cancelled to zero", scheme)
			}
		}
	}
}

// TestRecombineRejectsIncompatibleInputs pins the mixed-scheme and
// mixed-dimension rejections.
func TestRecombineRejectsIncompatibleInputs(t *testing.T) {
	levels := mustLevels(t, 2, 2)
	rng := rand.New(rand.NewSource(9))
	sources := randomSources(rng, levels.Total(), 8)
	slc := encodeSet(t, rng, SLC, levels, sources, 8)

	if _, err := Recombine(rng, SLC, levels, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Recombine(rng, Scheme(0), levels, slc[:1]); err == nil {
		t.Fatal("invalid scheme accepted")
	}
	if _, err := Recombine(rng, SLC, nil, slc[:1]); err == nil {
		t.Fatal("nil levels accepted")
	}
	if _, err := Recombine(rng, SLC, levels, []*CodedBlock{slc[0], nil}); err == nil {
		t.Fatal("nil block accepted")
	}

	// Mixed SLC levels: find two blocks of different levels.
	var a, b *CodedBlock
	for _, blk := range slc {
		if a == nil {
			a = blk
		} else if blk.Level != a.Level {
			b = blk
			break
		}
	}
	if b == nil {
		t.Fatal("test setup: need two SLC levels")
	}
	if _, err := Recombine(rng, SLC, levels, []*CodedBlock{a, b}); err == nil {
		t.Fatal("mixed-level SLC sample accepted")
	}

	// Mixed dimensions: a block from a different code length.
	short := &CodedBlock{Level: 0, Coeff: []byte{1}, Payload: make([]byte, 8)}
	if _, err := Recombine(rng, SLC, levels, []*CodedBlock{a, short}); err == nil {
		t.Fatal("mixed coefficient dimensions accepted")
	}
	pay := &CodedBlock{Level: a.Level, Coeff: append([]byte(nil), a.Coeff...), Payload: make([]byte, 4)}
	if _, err := Recombine(rng, SLC, levels, []*CodedBlock{a, pay}); err == nil {
		t.Fatal("mixed payload lengths accepted")
	}

	// A mislabeled block (support violation) — e.g. an SLC level-1 block
	// smuggled in as level 0 — must be rejected, not recombined.
	bad := b.Clone()
	bad.Level = 0
	if _, err := Recombine(rng, SLC, levels, []*CodedBlock{bad}); err == nil {
		t.Fatal("out-of-support coefficients accepted")
	}
}

// TestRecombineRanked pins the rank report: duplicates collapse the
// span, and an all-zero sample fails with the typed sentinel.
func TestRecombineRanked(t *testing.T) {
	levels := mustLevels(t, 2, 2)
	rng := rand.New(rand.NewSource(11))
	sources := randomSources(rng, levels.Total(), 8)
	blocks := encodeSet(t, rng, PLC, levels, sources, 12)

	nb, rank, err := RecombineRanked(rng, PLC, levels, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if want := coeffRank(t, blocks); rank != want {
		t.Fatalf("rank = %d, want %d", rank, want)
	}
	if nb == nil || gf256.IsZero(nb.Coeff) {
		t.Fatal("full-rank sample produced a useless block")
	}

	// The same block three times over spans one dimension.
	dup := []*CodedBlock{blocks[0], blocks[0].Clone(), blocks[0].Clone()}
	nb, rank, err = RecombineRanked(rng, PLC, levels, dup)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 1 {
		t.Fatalf("duplicate sample rank = %d, want 1", rank)
	}
	// The redraw loop keeps even a dependent sample's output nonzero.
	if gf256.IsZero(nb.Coeff) {
		t.Fatal("duplicate sample cancelled to zero despite redraws")
	}

	zero := &CodedBlock{Level: 0, Coeff: make([]byte, levels.Total()), Payload: make([]byte, 8)}
	if _, _, err := RecombineRanked(rng, PLC, levels, []*CodedBlock{zero, zero.Clone()}); !errors.Is(err, ErrDegenerateInputs) {
		t.Fatalf("err = %v, want ErrDegenerateInputs", err)
	}
}

// recombineEquiv is the satellite equivalence property: a store holding
// only recombined blocks decodes exactly like one holding the originals,
// whenever recombination preserved the span — and decoded payloads are
// always the true sources. Deterministic given (scheme, seed).
func recombineEquiv(t *testing.T, scheme Scheme, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, 2+rng.Intn(3))
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(4)
	}
	levels := mustLevels(t, sizes...)
	const payloadLen = 16
	sources := randomSources(rng, levels.Total(), payloadLen)
	originals := encodeSet(t, rng, scheme, levels, sources, levels.Total()+2*levels.Count())

	// One fresh recombination per original, drawn from the full eligible
	// pool (same level for SLC, level-prefix for PLC/RLC). The pool always
	// contains the original itself, so the output keeps its level and the
	// per-level block counts of the two sets match exactly.
	recombined := make([]*CodedBlock, 0, len(originals))
	for _, b := range originals {
		var pool []*CodedBlock
		for _, o := range originals {
			if (scheme == SLC && o.Level == b.Level) || (scheme != SLC && o.Level <= b.Level) {
				pool = append(pool, o)
			}
		}
		nb, err := Recombine(rng, scheme, levels, pool)
		if err != nil {
			t.Fatalf("%v seed %d: recombine: %v", scheme, seed, err)
		}
		if nb.Level != b.Level {
			t.Fatalf("%v seed %d: recombined level %d, want %d", scheme, seed, nb.Level, b.Level)
		}
		recombined = append(recombined, nb)
	}

	rankO, rankR := coeffRank(t, originals), coeffRank(t, recombined)
	if rankR > rankO {
		t.Fatalf("%v seed %d: recombined rank %d exceeds original %d", scheme, seed, rankR, rankO)
	}

	decode := func(blocks []*CodedBlock) *Decoder {
		dec, err := NewDecoder(scheme, levels, payloadLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if _, err := dec.Add(b); err != nil {
				t.Fatalf("%v seed %d: add: %v", scheme, seed, err)
			}
		}
		return dec
	}
	decO, decR := decode(originals), decode(recombined)

	// Whatever the recombined store decodes must be the true data.
	for i := range sources {
		if p, err := decR.Source(i); err == nil && !bytes.Equal(p, sources[i]) {
			t.Fatalf("%v seed %d: recombined store decoded source %d wrongly", scheme, seed, i)
		}
	}
	if decR.DecodedLevels() > decO.DecodedLevels() || decR.DecodedBlocks() > decO.DecodedBlocks() {
		t.Fatalf("%v seed %d: recombined store decoded more (%d levels/%d blocks) than the originals (%d/%d)",
			scheme, seed, decR.DecodedLevels(), decR.DecodedBlocks(), decO.DecodedLevels(), decO.DecodedBlocks())
	}
	if rankR == rankO {
		// Equal rank means equal span (recombined ⊆ span(originals)), so
		// prefix recovery must match exactly.
		if decR.DecodedLevels() != decO.DecodedLevels() || decR.DecodedBlocks() != decO.DecodedBlocks() {
			t.Fatalf("%v seed %d: span preserved but recovery drifted: recombined %d levels/%d blocks, originals %d/%d",
				scheme, seed, decR.DecodedLevels(), decR.DecodedBlocks(), decO.DecodedLevels(), decO.DecodedBlocks())
		}
	}
}

func TestRecombineDecodingEquivalence(t *testing.T) {
	for _, scheme := range []Scheme{SLC, PLC} {
		for seed := int64(1); seed <= 12; seed++ {
			recombineEquiv(t, scheme, seed)
		}
	}
}

// FuzzRecombineEquiv drives the equivalence property from fuzzed seeds:
// for any (scheme, seed), decoding a recombined-only store matches the
// original store's prefix recovery whenever the span was preserved, and
// never yields wrong payloads.
func FuzzRecombineEquiv(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Add(int64(42), false)
	f.Add(int64(1337), true)
	f.Fuzz(func(t *testing.T, seed int64, plc bool) {
		scheme := SLC
		if plc {
			scheme = PLC
		}
		recombineEquiv(t, scheme, seed)
	})
}

// TestRecombineFacade pins the repair primitive: a recombined block
// decodes like a fresh one, and the degenerate-sample sentinel is
// branchable with errors.Is.
func TestRecombineFacade(t *testing.T) {
	levels, err := NewLevels(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 8)
		rng.Read(sources[i])
	}
	enc, err := NewEncoder(PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, NewUniformDistribution(2), 12)
	if err != nil {
		t.Fatal(err)
	}
	fresh, rank, err := RecombineRanked(rng, PLC, levels, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if rank < levels.Total() {
		t.Fatalf("12-block sample has rank %d, want %d", rank, levels.Total())
	}
	dec, err := NewDecoder(PLC, levels, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Add(fresh); err != nil {
		t.Fatalf("decoder rejected recombined block: %v", err)
	}
	for _, b := range blocks {
		if _, err := dec.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if !dec.Complete() {
		t.Fatalf("recombined + original blocks decode %d levels", dec.DecodedLevels())
	}

	zero := &CodedBlock{Level: 0, Coeff: make([]byte, levels.Total()), Payload: make([]byte, 8)}
	if _, _, err := RecombineRanked(rng, PLC, levels, []*CodedBlock{zero}); !errors.Is(err, ErrDegenerateInputs) {
		t.Fatalf("all-zero sample = %v, want errors.Is ErrDegenerateInputs", err)
	}
	if _, err := Recombine(rng, PLC, levels, blocks); err != nil {
		t.Fatalf("unranked recombine: %v", err)
	}
}
