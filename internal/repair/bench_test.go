package repair

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gfmat"
)

// The repair benchmarks quantify the tentpole claim: regenerating a
// block by recombination moves a sample's worth of data and a little
// GF(2^8) arithmetic, while the classic path decodes the whole code and
// re-encodes. BenchmarkRegenerate pairs against BenchmarkRegenerateRef,
// the decode-then-re-encode baseline:
//
//	go test -run='^$' -bench 'Benchmark(Regenerate|AuditRank)' -benchtime=100x ./internal/repair

const benchPayload = 4096

func benchSetup(b *testing.B, nBlocks int) (*core.Levels, []*core.CodedBlock) {
	b.Helper()
	levels, err := core.NewLevels(8, 24, 32)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, benchPayload)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.PriorityDistribution{0.2, 0.3, 0.5}, nBlocks)
	if err != nil {
		b.Fatal(err)
	}
	return levels, blocks
}

// BenchmarkRegenerate recombines one fresh block from an 8-survivor
// sample — the daemon's per-block work, decode-free.
func BenchmarkRegenerate(b *testing.B) {
	levels, blocks := benchSetup(b, 96)
	rng := rand.New(rand.NewSource(9))
	sample := blocks[:8]
	moved := 0
	for _, s := range sample {
		moved += len(s.Coeff) + len(s.Payload)
	}
	b.SetBytes(int64(moved))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Recombine(rng, core.PLC, levels, sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegenerateRef is the baseline the daemon replaces: gather
// enough blocks for full rank, decode every source, re-encode one block.
func BenchmarkRegenerateRef(b *testing.B) {
	levels, blocks := benchSetup(b, 96)
	rng := rand.New(rand.NewSource(9))
	moved := 0
	for _, s := range blocks {
		moved += len(s.Coeff) + len(s.Payload)
	}
	b.SetBytes(int64(moved))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := core.NewDecoder(core.PLC, levels, benchPayload)
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range blocks {
			if _, err := dec.Add(blk); err != nil {
				b.Fatal(err)
			}
			if dec.Complete() {
				break
			}
		}
		if !dec.Complete() {
			b.Fatal("baseline cannot even decode — not enough blocks")
		}
		enc, err := core.NewEncoder(core.PLC, levels, dec.Sources())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := enc.Encode(rng, levels.Count()-1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuditRank measures the rank check RecombineRanked adds over
// plain Recombine, at daemon sample size.
func BenchmarkAuditRank(b *testing.B) {
	_, blocks := benchSetup(b, 96)
	sample := blocks[:8]
	rows := make([][]byte, len(sample))
	for i, s := range sample {
		rows[i] = s.Coeff
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gfmat.FromRows(rows)
		if err != nil {
			b.Fatal(err)
		}
		if m.Rank() == 0 {
			b.Fatal("sample degenerate")
		}
	}
}
