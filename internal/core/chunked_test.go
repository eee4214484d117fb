package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gfmat"
)

func TestChunkLayout(t *testing.T) {
	cl, err := NewChunkLayout(1000, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Step != 224 {
		t.Fatalf("step %d, want 224", cl.Step)
	}
	// Chunks must cover [0, Total): start of chunk i+1 ≤ end of chunk i -
	// overlap ≥ continuity, and the last chunk ends at Total.
	prevHi := 0
	for i := 0; i < cl.Count; i++ {
		lo, hi := cl.Span(i)
		if hi-lo != cl.Size {
			t.Fatalf("chunk %d width %d, want %d", i, hi-lo, cl.Size)
		}
		if lo > prevHi {
			t.Fatalf("chunk %d starts at %d leaving gap after %d", i, lo, prevHi)
		}
		prevHi = hi
	}
	if prevHi != 1000 {
		t.Fatalf("last chunk ends at %d, want 1000", prevHi)
	}

	// Degenerate single chunk.
	one, err := NewChunkLayout(10, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.Count != 1 {
		t.Fatalf("single-chunk count %d", one.Count)
	}

	for _, bad := range [][3]int{{0, 1, 0}, {10, 0, 0}, {10, 11, 0}, {10, 4, 4}, {10, 4, -1}} {
		if _, err := NewChunkLayout(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("NewChunkLayout%v accepted", bad)
		}
	}
}

// addChunkedBoth feeds one block to a chunked decoder and, densified, to
// the monolithic reference, and fails unless they agree on whether it was
// innovative and on every answer afterwards: rank, completion, decoded
// count, each chunk's and each source's decodability, and the bytes of
// every decoded source.
func addChunkedBoth(t *testing.T, cd *ChunkedDecoder, ref *gfmat.RefDecoder, b *CodedBlock) {
	t.Helper()
	i1, err := cd.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := ref.Add(b.DenseCoeff(), b.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Fatalf("innovation: chunked %v, reference %v", i1, i2)
	}
	if cd.Rank() != ref.Rank() || cd.Complete() != ref.Complete() || cd.DecodedBlocks() != ref.DecodedCount() {
		t.Fatalf("rank/complete/decoded: chunked %d/%v/%d, reference %d/%v/%d",
			cd.Rank(), cd.Complete(), cd.DecodedBlocks(), ref.Rank(), ref.Complete(), ref.DecodedCount())
	}
	for i := 0; i < cd.Layout().Count; i++ {
		lo, hi := cd.Layout().Span(i)
		want := true
		for j := lo; j < hi; j++ {
			want = want && ref.Decoded(j)
		}
		if cd.ChunkDecoded(i) != want {
			t.Fatalf("chunk %d: decoded %v, reference %v", i, cd.ChunkDecoded(i), want)
		}
	}
	for i := 0; i < ref.NumSymbols(); i++ {
		cs, cerr := cd.Source(i)
		rs, rerr := ref.Symbol(i)
		if (cerr == nil) != (rerr == nil) {
			t.Fatalf("source %d: decodable %v, reference %v", i, cerr == nil, rerr == nil)
		}
		if cerr == nil && !bytes.Equal(cs, rs) {
			t.Fatalf("source %d: decoded value differs from the reference", i)
		}
	}
}

// TestChunkedVsMonolithicEquivalence is the chunked-vs-monolithic
// decode-equivalence check: the chunked decoder and the dense monolithic
// reference fed the densified versions of the same blocks must agree on
// every answer after every block.
func TestChunkedVsMonolithicEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n, plen = 48, 16
	layout, err := NewChunkLayout(n, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]byte, n)
	for i := range sources {
		sources[i] = make([]byte, plen)
		rng.Read(sources[i])
	}
	ce, err := NewChunkedEncoder(layout, sources)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := NewChunkedDecoder(layout, plen)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := gfmat.NewRefDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := ce.EncodeBatch(rng, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		addChunkedBoth(t, cd, oracle, b)
	}
	if !cd.Complete() {
		t.Fatalf("not complete after %d blocks", len(blocks))
	}
	for i, want := range sources {
		got, err := cd.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("source %d decoded wrong", i)
		}
	}
}

// TestChunkedOverlapRescue pins the expander property the overlap exists
// for: a chunk that received fewer blocks than its width decodes anyway,
// because neighbors' solved overlap columns shrink what it must prove. No
// chunk here has enough blocks to decode alone-except-via-overlap, yet
// the global elimination completes.
func TestChunkedOverlapRescue(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	layout, err := NewChunkLayout(12, 6, 3) // spans [0,6) [3,9) [6,12)
	if err != nil {
		t.Fatal(err)
	}
	if layout.Count != 3 {
		t.Fatalf("count %d, want 3", layout.Count)
	}
	sources := make([][]byte, 12)
	for i := range sources {
		sources[i] = []byte{byte(i), byte(i * 3)}
	}
	ce, err := NewChunkedEncoder(layout, sources)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := NewChunkedDecoder(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 0 and 2 get 5 blocks each — one short of their width 6, so
	// neither decodes alone. Chunk 1 (pure overlap coverage) gets 6.
	perChunk := []int{5, 6, 5}
	for chunk, count := range perChunk {
		for i := 0; i < count; i++ {
			b, err := ce.EncodeChunk(rng, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cd.Add(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !cd.Complete() {
		t.Fatalf("overlap rescue failed: rank %d/12, decoded %d", cd.Rank(), cd.DecodedBlocks())
	}
	for i, want := range sources {
		got, err := cd.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("source %d decoded wrong", i)
		}
	}
	for i := 0; i < 3; i++ {
		if !cd.ChunkDecoded(i) {
			t.Errorf("chunk %d not decoded", i)
		}
	}
}

func TestChunkedDecoderValidation(t *testing.T) {
	layout, err := NewChunkLayout(16, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := NewChunkedDecoder(layout, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []*CodedBlock{
		nil,
		{Level: 0, SpCoeff: &SparseCoeff{Len: 9, Idx: []uint32{0}, Val: []byte{1}}, Payload: []byte{}},   // wrong length
		{Level: 99, SpCoeff: &SparseCoeff{Len: 16, Idx: []uint32{0}, Val: []byte{1}}, Payload: []byte{}}, // bad chunk
		{Level: 0, SpCoeff: &SparseCoeff{Len: 16, Idx: []uint32{9}, Val: []byte{1}}, Payload: []byte{}},  // escapes span [0,8)
	}
	for i, b := range cases {
		if _, err := cd.Add(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// A dense block over the whole object is legal (monolithic fallback).
	dense := make([]byte, 16)
	dense[3] = 7
	if _, err := cd.Add(&CodedBlock{Level: 0, Coeff: dense, Payload: []byte{}}); err != nil {
		t.Fatalf("dense fallback rejected: %v", err)
	}
}

// TestChunkedWireRoundTrip: chunk blocks ship as compact v3 span frames
// and survive the wire unchanged.
func TestChunkedWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	layout, err := NewChunkLayout(1024, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := NewChunkedEncoder(layout, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ce.EncodeChunk(rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Span mode: header + mode + start + width + 64 raw bytes + no payload.
	if want := wireHeader + 1 + 8 + 64; len(data) != want {
		t.Fatalf("chunk frame %d bytes, want %d (span mode)", len(data), want)
	}
	var back CodedBlock
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.IsSparse() || !bytes.Equal(back.DenseCoeff(), b.DenseCoeff()) || back.Level != 3 {
		t.Fatal("chunk frame round-trip mismatch")
	}
}

func TestAutoCoding(t *testing.T) {
	cases := []struct {
		n    int
		want Coding
	}{
		{1, CodingDense}, {256, CodingDense}, {257, CodingSparse},
		{1024, CodingSparse}, {1025, CodingChunked}, {100000, CodingChunked},
	}
	for _, tc := range cases {
		if got := AutoCoding(tc.n); got != tc.want {
			t.Errorf("AutoCoding(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	cl, err := DefaultChunkLayout(100)
	if err != nil || cl.Size != 100 || cl.Count != 1 {
		t.Errorf("DefaultChunkLayout(100) = %+v, %v", cl, err)
	}
	cl, err = DefaultChunkLayout(5000)
	if err != nil || cl.Size != DefaultChunkSize || cl.Overlap != DefaultChunkOverlap {
		t.Errorf("DefaultChunkLayout(5000) = %+v, %v", cl, err)
	}
}

// FuzzChunkedDecodeEquiv fuzzes the chunked decoder against the dense
// monolithic oracle over random layouts, block mixes and partial decode
// states.
func FuzzChunkedDecodeEquiv(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(8), uint8(2), uint8(40), uint8(4))
	f.Add(int64(2), uint8(12), uint8(6), uint8(3), uint8(16), uint8(0))
	f.Add(int64(3), uint8(40), uint8(10), uint8(9), uint8(70), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, totalRaw, sizeRaw, overlapRaw, countRaw, plenRaw uint8) {
		total := 1 + int(totalRaw%48)
		size := 1 + int(sizeRaw)%total
		overlap := 0
		if size > 1 {
			overlap = int(overlapRaw) % size
		}
		plen := int(plenRaw % 9)
		nBlocks := int(countRaw)
		layout, err := NewChunkLayout(total, size, overlap)
		if err != nil {
			t.Fatal(err) // all derived values are in range by construction
		}
		rng := rand.New(rand.NewSource(seed))
		sources := make([][]byte, total)
		for i := range sources {
			sources[i] = make([]byte, plen)
			rng.Read(sources[i])
		}
		ce, err := NewChunkedEncoder(layout, sources)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := NewChunkedDecoder(layout, plen)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := gfmat.NewRefDecoder(total, plen)
		if err != nil {
			t.Fatal(err)
		}
		for bi := 0; bi < nBlocks; bi++ {
			b, err := ce.EncodeChunk(rng, rng.Intn(layout.Count))
			if err != nil {
				t.Fatal(err)
			}
			addChunkedBoth(t, cd, oracle, b)
		}
		for i := 0; i < total; i++ {
			if cs, err := cd.Source(i); err == nil && !bytes.Equal(cs, sources[i]) {
				t.Fatalf("source %d: decoded value differs from the source", i)
			}
		}
	})
}

// TestChunkedDecodesPastPrefix: a chunk with a full set of blocks decodes
// while the chunks before it are starved, so its sources are readable
// past an empty decoded prefix, and each answer matches the reference.
func TestChunkedDecodesPastPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	layout, err := NewChunkLayout(18, 6, 2) // spans [0,6) [4,10) [8,14) [12,18)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]byte, layout.Total)
	for i := range sources {
		sources[i] = []byte{byte(i), byte(7 * i), byte(i + 100)}
	}
	ce, err := NewChunkedEncoder(layout, sources)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := NewChunkedDecoder(layout, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gfmat.NewRefDecoder(layout.Total, 3)
	if err != nil {
		t.Fatal(err)
	}
	for chunk, count := range []int{2, 0, 6, 1} {
		for i := 0; i < count; i++ {
			b, err := ce.EncodeChunk(rng, chunk)
			if err != nil {
				t.Fatal(err)
			}
			addChunkedBoth(t, cd, ref, b)
		}
	}
	if cd.ChunkDecoded(0) || !cd.ChunkDecoded(2) {
		t.Fatalf("chunk 0 decoded %v, chunk 2 decoded %v; want false, true", cd.ChunkDecoded(0), cd.ChunkDecoded(2))
	}
	for i := 8; i < 14; i++ {
		got, err := cd.Source(i)
		if err != nil || !bytes.Equal(got, sources[i]) {
			t.Fatalf("source %d of the full chunk: %v, %v", i, got, err)
		}
	}
}
