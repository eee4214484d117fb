package gfmat_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gfmat"
)

// The decode of the benchmark's publish-recover workload, run through the
// Decoder exactly as core.Decoder drives it for PLC: each block through
// AddBounded at its level's boundary.
//
//	go test -run='^$' -bench 'BenchmarkDecodePLCN512x4KiB' -benchtime=10x ./internal/gfmat

// workloadFolds is the payload-fold count of decoding workloadStream. A
// decoder change that moves it must say why; reordering folds must not.
const workloadFolds = 148_027

// workloadStream returns N = 512 sources of 4 KiB in 8 PLC levels of 64,
// 84 blocks per level (64 plus 20 spare), shuffled.
func workloadStream(tb testing.TB) (*core.Levels, [][]byte, []*core.CodedBlock) {
	tb.Helper()
	const n, nLevels, payloadLen, extra = 512, 8, 4 << 10, 20
	sizes := make([]int, nLevels)
	for i := range sizes {
		sizes[i] = n / nLevels
	}
	levels, err := core.NewLevels(sizes...)
	if err != nil {
		tb.Fatal(err)
	}
	sources := gfmat.RandomSymbols(rand.New(rand.NewSource(1)), n, payloadLen)
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var blocks []*core.CodedBlock
	for level := 0; level < nLevels; level++ {
		for i := 0; i < levels.Size(level)+extra; i++ {
			blk, err := enc.Encode(rng, level)
			if err != nil {
				tb.Fatal(err)
			}
			blocks = append(blocks, blk)
		}
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	return levels, sources, blocks
}

// decodeWorkload decodes the stream to completion and reads every symbol
// back.
func decodeWorkload(tb testing.TB, levels *core.Levels, blocks []*core.CodedBlock) *gfmat.Decoder {
	tb.Helper()
	d, err := gfmat.NewDecoder(levels.Total(), len(blocks[0].Payload))
	if err != nil {
		tb.Fatal(err)
	}
	for _, blk := range blocks {
		_, hi, err := core.PLC.Support(levels, blk.Level)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := d.AddBounded(blk.Coeff, blk.Payload, hi); err != nil {
			tb.Fatal(err)
		}
		if d.Complete() {
			break
		}
	}
	for i := 0; i < d.NumSymbols(); i++ {
		if _, err := d.Symbol(i); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// TestDecodeFoldCount pins the payload folds of the publish-recover
// decode: the arrivals' forward folds plus the prefix solves, whatever
// order the solves run their folds in.
func TestDecodeFoldCount(t *testing.T) {
	levels, sources, blocks := workloadStream(t)
	d := decodeWorkload(t, levels, blocks)
	if got := d.Folds(); got != workloadFolds {
		t.Errorf("decode ran %d payload folds, want %d", got, workloadFolds)
	}
	for i, src := range sources {
		if got, _ := d.Symbol(i); !bytes.Equal(got, src) {
			t.Fatalf("symbol %d decoded wrong", i)
		}
	}
	t.Logf("%d payload folds for %d symbols of %d bytes", d.Folds(), d.NumSymbols(), d.PayloadLen())
}

// BenchmarkDecodePLCN512x4KiB times decodeWorkload and reports its folds
// as folds/op; the Ref twin runs the same stream through RefDecoder.
func BenchmarkDecodePLCN512x4KiB(b *testing.B) {
	levels, _, blocks := workloadStream(b)
	b.SetBytes(int64(len(blocks) * len(blocks[0].Payload)))
	b.ResetTimer()
	folds := 0
	for i := 0; i < b.N; i++ {
		folds = decodeWorkload(b, levels, blocks).Folds()
	}
	b.ReportMetric(float64(folds), "folds/op")
}

func BenchmarkDecodePLCN512x4KiBRef(b *testing.B) {
	levels, _, blocks := workloadStream(b)
	b.SetBytes(int64(len(blocks) * len(blocks[0].Payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := gfmat.NewRefDecoder(levels.Total(), len(blocks[0].Payload))
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range blocks {
			if _, err := d.Add(blk.Coeff, blk.Payload); err != nil {
				b.Fatal(err)
			}
			if d.Complete() {
				break
			}
		}
		for j := 0; j < d.NumSymbols(); j++ {
			if _, err := d.Symbol(j); err != nil {
				b.Fatal(err)
			}
		}
	}
}
