package gfmat

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

// Tests for the blocked prefix solve: a prefix advance of any length,
// reached through bounded, unbounded or sparse adds, must leave the
// decoder bit-identical to the RefDecoder oracle, whether or not rows
// inside it were solved on demand before it.

// advanceLengths are the advances the blocked solve has to get right: one
// row, a group short by one, one full group, one row into a second group,
// and several groups with a ragged tail.
var advanceLengths = []int{1, solveGroup - 1, solveGroup, solveGroup + 1, 3*solveGroup + 5}

// advancePayloads cover no payload, sub-word and word-edge payloads, a
// page, and one past the striping threshold.
var advancePayloads = []int{0, 1, 63, 64, 4 << 10, payloadStripeMin + 777}

// advanceBlocks returns blocks over len(symbols) columns whose innovative
// rows land on the pivots of order, in that order, with a dependent block
// after every fifth one. The row for column c is a fresh vector whose last
// nonzero is c (nonzero left of c with probability density) plus mix times
// each earlier row, each earlier row taken with probability mix: reduced
// against the rows before it, it leaves the fresh vector, so its pivot is
// c. mix = 1 gives RLC-like rows across every column seen so far.
func advanceBlocks(rng *rand.Rand, symbols [][]byte, order []int, plen int, density, mix float64) []levelBlock {
	n := len(symbols)
	var blocks, kept []levelBlock
	block := func(coeff []byte) levelBlock {
		bound := 0
		if j := gf256.LastNonzero(coeff, 0); j >= 0 {
			bound = j + 1
		}
		return levelBlock{coeff: coeff, payload: encodeWith(coeff, symbols, plen), bound: bound}
	}
	combine := func(coeff []byte) {
		for _, b := range kept {
			if rng.Float64() < mix {
				gf256.AddMulSlice(coeff, b.coeff, byte(1+rng.Intn(255)))
			}
		}
	}
	for k, c := range order {
		coeff := make([]byte, n)
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				coeff[j] = byte(1 + rng.Intn(255))
			}
		}
		coeff[c] = byte(1 + rng.Intn(255))
		combine(coeff)
		b := block(coeff)
		blocks = append(blocks, b)
		kept = append(kept, b)
		if k%5 == 4 {
			dep := make([]byte, n)
			combine(dep)
			blocks = append(blocks, block(dep))
		}
	}
	return blocks
}

// segmentOrder returns the pivot order that makes the prefix advance by
// exactly lens[0], then lens[1], …: each segment [s, s+L) gets its
// columns s+1 … s+L−1 in random order, then column s, which releases it.
func segmentOrder(rng *rand.Rand, lens []int) []int {
	var order []int
	s := 0
	for _, l := range lens {
		for _, k := range rng.Perm(l - 1) {
			order = append(order, s+1+k)
		}
		order = append(order, s)
		s += l
	}
	return order
}

// descendingOrder is the arrival order of dense RLC rows: each lands one
// column left of the last, and the prefix advances once, by n.
func descendingOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	return order
}

// TestAdvanceMatchesRef feeds PLC-shaped and RLC-shaped streams whose
// prefix advances by each of advanceLengths, densely (bounded or not) and
// sparsely, at every payload length in advancePayloads. After every add
// the innovative flag, rank and prefix must match RefDecoder and the
// prefix's payloads must be the sources; at the end a decoder queried only
// then and a decoder queried after every add (so advances meet rows
// already solved) must match RefDecoder on every observable.
func TestAdvanceMatchesRef(t *testing.T) {
	type stream struct {
		name  string
		order func(rng *rand.Rand) []int
		lens  []int // the prefix advances the order makes, in turn
		mix   float64
	}
	streams := []stream{{
		name:  "plc",
		order: func(rng *rand.Rand) []int { return segmentOrder(rng, advanceLengths) },
		lens:  advanceLengths,
		mix:   0.3,
	}}
	for _, l := range advanceLengths {
		streams = append(streams, stream{
			name:  fmt.Sprintf("rlc%d", l),
			order: func(*rand.Rand) []int { return descendingOrder(l) },
			lens:  []int{l},
			mix:   1,
		})
	}
	adds := []struct {
		name string
		add  func(d *Decoder, b levelBlock) (bool, error)
	}{
		{"bounded", func(d *Decoder, b levelBlock) (bool, error) { return d.AddBounded(b.coeff, b.payload, b.bound) }},
		{"dense", func(d *Decoder, b levelBlock) (bool, error) { return d.Add(b.coeff, b.payload) }},
		{"sparse", func(d *Decoder, b levelBlock) (bool, error) {
			idx, val := sparsify(b.coeff)
			return d.AddSparse(idx, val, b.payload)
		}},
	}
	seed := int64(0)
	for _, st := range streams {
		for _, density := range []float64{1, 0.3} {
			for _, plen := range advancePayloads {
				seed++
				rng := rand.New(rand.NewSource(seed))
				order := st.order(rng)
				symbols := randomSymbols(rng, len(order), plen)
				blocks := advanceBlocks(rng, symbols, order, plen, density, st.mix)
				for _, a := range adds {
					label := fmt.Sprintf("%s/density %.1f/plen %d/%s", st.name, density, plen, a.name)
					checkAdvances(t, label, symbols, blocks, st.lens, a.add)
				}
			}
		}
	}
}

// checkAdvances runs one stream through a quiet decoder, an eager one and
// the reference, as TestAdvanceMatchesRef describes.
func checkAdvances(t *testing.T, label string, symbols [][]byte, blocks []levelBlock, lens []int,
	add func(*Decoder, levelBlock) (bool, error)) {
	t.Helper()
	n, plen := len(symbols), len(symbols[0])
	quiet, ref := newPair(t, n, plen)
	eager, err := NewDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	var advances []int
	for i, b := range blocks {
		prefix := quiet.DecodedPrefix()
		innovative, err := add(quiet, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Add(b.coeff, b.payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := add(eager, b); err != nil {
			t.Fatal(err)
		}
		if innovative != want || quiet.Rank() != ref.Rank() || quiet.DecodedPrefix() != ref.DecodedPrefix() {
			t.Fatalf("%s: block %d: innovative/rank/prefix %v/%d/%d, reference %v/%d/%d", label, i,
				innovative, quiet.Rank(), quiet.DecodedPrefix(), want, ref.Rank(), ref.DecodedPrefix())
		}
		if p := quiet.DecodedPrefix(); p > prefix {
			advances = append(advances, p-prefix)
			for j := prefix; j < p; j++ {
				if got, _ := quiet.Symbol(j); !bytes.Equal(got, symbols[j]) {
					t.Fatalf("%s: block %d: symbol %d wrong after the advance", label, i, j)
				}
			}
		}
		compareDecoders(t, eager, ref, fmt.Sprintf("%s: eager, block %d", label, i))
	}
	if fmt.Sprint(advances) != fmt.Sprint(lens) {
		t.Fatalf("%s: prefix advanced by %v, want %v", label, advances, lens)
	}
	compareDecoders(t, quiet, ref, label+": quiet")
	if quiet.SolvedRows() != n || eager.SolvedRows() != n {
		t.Fatalf("%s: solved rows %d (quiet) and %d (eager), want %d", label, quiet.SolvedRows(), eager.SolvedRows(), n)
	}
}

// TestAdvanceStripedBitIdentical: an advance of several groups with
// payloads past the striping threshold decodes the same bytes, with the
// same fold count, at every GOMAXPROCS. Run it under -race: the stripes of
// one advance share the coefficient rows and must not share payload bytes.
func TestAdvanceStripedBitIdentical(t *testing.T) {
	const plen = payloadStripeMin + 777
	rng := rand.New(rand.NewSource(5))
	order := segmentOrder(rng, advanceLengths)
	symbols := randomSymbols(rng, len(order), plen)
	blocks := advanceBlocks(rng, symbols, order, plen, 0.6, 0.3)
	decode := func(procs int) *Decoder {
		setProcs(t, procs)
		d, err := NewDecoder(len(order), plen)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if _, err := d.AddBounded(b.coeff, b.payload, b.bound); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	base := decode(1)
	for _, procs := range []int{2, 3, 4} {
		d := decode(procs)
		if d.folds != base.folds {
			t.Fatalf("GOMAXPROCS %d: %d folds, want %d", procs, d.folds, base.folds)
		}
		compareDecoders(t, base, d, fmt.Sprintf("GOMAXPROCS 1 vs %d", procs))
	}
	for i, s := range symbols {
		if got, _ := base.Symbol(i); !bytes.Equal(got, s) {
			t.Fatalf("symbol %d decoded wrong", i)
		}
	}
}
