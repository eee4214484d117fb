package gfmat_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gfmat"
)

// The blocked prefix solve as core's SLC and chunked decoders reach it:
// per-level decoders whose levels are the advance lengths, and one sparse
// decoder over overlapping chunks of those widths. Each decoder must agree
// with RefDecoder on the flat system after every add, both when it is
// queried after every add and when it is queried only at the end.

// sourceDecoder is what core.Decoder and core.ChunkedDecoder both answer.
type sourceDecoder interface {
	Add(*core.CodedBlock) (bool, error)
	Rank() int
	Source(i int) ([]byte, error)
}

// checkAgainstRef feeds blocks to an eager and a quiet decoder made by
// newDec and to RefDecoder, and fails on the first disagreement.
func checkAgainstRef(t *testing.T, label string, sources [][]byte, blocks []*core.CodedBlock, newDec func() sourceDecoder) {
	t.Helper()
	n, plen := len(sources), len(sources[0])
	ref, err := gfmat.NewRefDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	eager, quiet := newDec(), newDec()
	compare := func(d sourceDecoder, at string) {
		t.Helper()
		if d.Rank() != ref.Rank() {
			t.Fatalf("%s: %s: rank %d, reference %d", label, at, d.Rank(), ref.Rank())
		}
		for i := range sources {
			got, err := d.Source(i)
			if (err == nil) != ref.Decoded(i) {
				t.Fatalf("%s: %s: source %d decoded %v, reference %v", label, at, i, err == nil, ref.Decoded(i))
			}
			if err == nil && !bytes.Equal(got, sources[i]) {
				t.Fatalf("%s: %s: source %d decoded wrong", label, at, i)
			}
		}
	}
	for k, blk := range blocks {
		innovative, err := eager.Add(blk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := quiet.Add(blk); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Add(blk.DenseCoeff(), blk.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if innovative != want {
			t.Fatalf("%s: block %d: innovative %v, reference %v", label, k, innovative, want)
		}
		compare(eager, fmt.Sprintf("eager, block %d", k))
	}
	compare(quiet, "quiet")
	if !ref.Complete() {
		t.Fatalf("%s: stream left rank %d/%d", label, ref.Rank(), n)
	}
}

// TestAdvanceThroughCoreSLC: one SLC level per advance length, dense and
// sparse, so each per-level decoder solves its level in one advance.
func TestAdvanceThroughCoreSLC(t *testing.T) {
	levels, err := core.NewLevels(gfmat.AdvanceLengths...)
	if err != nil {
		t.Fatal(err)
	}
	for _, sparsity := range []int{0, 3} {
		for i, plen := range gfmat.AdvancePayloads {
			rng := rand.New(rand.NewSource(int64(100*sparsity + i)))
			sources := gfmat.RandomSymbols(rng, levels.Total(), plen)
			enc, err := core.NewEncoder(core.SLC, levels, sources, core.WithSparsity(sparsity))
			if err != nil {
				t.Fatal(err)
			}
			var blocks []*core.CodedBlock
			for level := range gfmat.AdvanceLengths {
				for j := 0; j < 4*levels.Size(level)+4; j++ {
					blk, err := enc.Encode(rng, level)
					if err != nil {
						t.Fatal(err)
					}
					blocks = append(blocks, blk)
				}
			}
			rng.Shuffle(len(blocks), func(a, b int) { blocks[a], blocks[b] = blocks[b], blocks[a] })
			label := fmt.Sprintf("SLC sparsity %d plen %d", sparsity, plen)
			checkAgainstRef(t, label, sources, blocks, func() sourceDecoder {
				d, err := core.NewDecoder(core.SLC, levels, plen)
				if err != nil {
					t.Fatal(err)
				}
				return d
			})
		}
	}
}

// TestAdvanceThroughCoreChunked: chunks as wide as each advance length,
// overlapping by a third, over as many columns as all the lengths.
func TestAdvanceThroughCoreChunked(t *testing.T) {
	total := 0
	for _, l := range gfmat.AdvanceLengths {
		total += l
	}
	for _, size := range gfmat.AdvanceLengths {
		layout, err := core.NewChunkLayout(total, size, size/3)
		if err != nil {
			t.Fatal(err)
		}
		for i, plen := range gfmat.AdvancePayloads {
			rng := rand.New(rand.NewSource(int64(1000*size + i)))
			sources := gfmat.RandomSymbols(rng, total, plen)
			enc, err := core.NewChunkedEncoder(layout, sources)
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := enc.EncodeBatch(rng, total+2*layout.Count)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("chunks of %d plen %d", size, plen)
			checkAgainstRef(t, label, sources, blocks, func() sourceDecoder {
				d, err := core.NewChunkedDecoder(layout, plen)
				if err != nil {
					t.Fatal(err)
				}
				return d
			})
		}
	}
}
