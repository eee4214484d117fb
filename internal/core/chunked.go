package core

import (
	"fmt"
	"math/rand"

	"repro/internal/gf256"
	"repro/internal/gfmat"
)

// Expander-chunked coding (after the Expander Chunked Codes line of
// related work): an object far larger than one comfortable generation is
// covered by overlapping fixed-width chunks, every coded block is a random
// combination over a single chunk's span, and the chunks share Overlap
// columns with their neighbors. Encoding and per-block decode work then
// scale with the chunk size instead of the object size, while the overlap
// couples the chunks: a chunk that received too few blocks of its own is
// rescued by neighbors whose solved overlap columns shrink what it still
// has to prove. Decoding runs as ONE global sparse elimination
// (gfmat.Decoder.AddSparse) whose active-span machinery keeps each row
// operation within O(chunk size) columns — there is never a dense N×N
// matrix, which is what keeps per-byte decode cost near-flat in N.

// ChunkLayout describes the overlapping chunk cover of an object of Total
// source blocks: Count chunks of uniform width Size, consecutive chunks
// sharing Overlap columns. All chunks are full width; the last one is
// clamped back so it ends exactly at Total.
type ChunkLayout struct {
	Total   int
	Size    int
	Overlap int
	Step    int // Size - Overlap, the stride between chunk starts
	Count   int
}

// NewChunkLayout validates and builds a layout. size must be in (0,
// total]; overlap in [0, size). A size covering the whole object yields a
// single chunk (degenerate, monolithic coding).
func NewChunkLayout(total, size, overlap int) (*ChunkLayout, error) {
	if total <= 0 {
		return nil, fmt.Errorf("core: chunk layout total %d, want > 0", total)
	}
	if size <= 0 || size > total {
		return nil, fmt.Errorf("core: chunk size %d outside (0, %d]", size, total)
	}
	if overlap < 0 || overlap >= size {
		return nil, fmt.Errorf("core: chunk overlap %d outside [0, %d)", overlap, size)
	}
	step := size - overlap
	count := 1 + (total-size+step-1)/step
	return &ChunkLayout{Total: total, Size: size, Overlap: overlap, Step: step, Count: count}, nil
}

// Span returns the column range [lo, hi) of chunk i. Every chunk has
// width Size; the last chunk's start is clamped so hi == Total.
func (cl *ChunkLayout) Span(i int) (lo, hi int) {
	lo = i * cl.Step
	if lo > cl.Total-cl.Size {
		lo = cl.Total - cl.Size
	}
	return lo, lo + cl.Size
}

// ValidChunk reports whether i is a chunk index of the layout.
func (cl *ChunkLayout) ValidChunk(i int) bool { return i >= 0 && i < cl.Count }

// ChunkedEncoder produces coded blocks over one chunk at a time. Each
// block's coefficients are dense within its chunk's span and zero outside
// it, carried sparsely (the span wire mode), and the block's Level field
// carries the chunk index so receivers can route it without inspecting
// the coefficients.
type ChunkedEncoder struct {
	layout     *ChunkLayout
	sources    [][]byte // nil for coefficient-only use
	payloadLen int
}

// NewChunkedEncoder builds an encoder over the layout. sources must be
// nil/empty or hold exactly layout.Total equal-length payloads.
func NewChunkedEncoder(layout *ChunkLayout, sources [][]byte) (*ChunkedEncoder, error) {
	if layout == nil {
		return nil, fmt.Errorf("core: nil chunk layout")
	}
	if layout.Count > 0xFFFF+1 {
		return nil, fmt.Errorf("core: %d chunks do not fit the wire level field", layout.Count)
	}
	ce := &ChunkedEncoder{layout: layout}
	if len(sources) > 0 {
		if len(sources) != layout.Total {
			return nil, fmt.Errorf("core: %d source payloads, want %d", len(sources), layout.Total)
		}
		ce.payloadLen = len(sources[0])
		ce.sources = make([][]byte, len(sources))
		for i, s := range sources {
			if len(s) != ce.payloadLen {
				return nil, fmt.Errorf("core: source %d has %d bytes, want %d", i, len(s), ce.payloadLen)
			}
			ce.sources[i] = append([]byte(nil), s...)
		}
	}
	return ce, nil
}

// Layout returns the encoder's chunk layout.
func (ce *ChunkedEncoder) Layout() *ChunkLayout { return ce.layout }

// PayloadLen returns the per-block payload size in bytes.
func (ce *ChunkedEncoder) PayloadLen() int { return ce.payloadLen }

// EncodeChunk generates one coded block over chunk i: uniformly random
// nonzero coefficients across the chunk's span, carried sparsely.
func (ce *ChunkedEncoder) EncodeChunk(rng *rand.Rand, i int) (*CodedBlock, error) {
	if !ce.layout.ValidChunk(i) {
		return nil, fmt.Errorf("core: chunk %d outside [0, %d)", i, ce.layout.Count)
	}
	lo, hi := ce.layout.Span(i)
	w := hi - lo
	s := &SparseCoeff{Len: ce.layout.Total, Idx: make([]uint32, w), Val: make([]byte, w)}
	for j := 0; j < w; j++ {
		s.Idx[j] = uint32(lo + j)
		s.Val[j] = byte(1 + rng.Intn(255))
	}
	b := &CodedBlock{Level: i, SpCoeff: s}
	if ce.payloadLen > 0 {
		b.Payload = make([]byte, ce.payloadLen)
		for j := lo; j < hi; j++ {
			gf256.AddMulSlice(b.Payload, ce.sources[j], s.Val[j-lo])
		}
	} else {
		b.Payload = []byte{}
	}
	return b, nil
}

// EncodeBatch generates count coded blocks on the cross-chunk overlap
// schedule: round-robin over the chunks, so every prefix of the batch
// spreads its redundancy evenly and neighboring chunks interleave — the
// property that lets the global elimination resolve overlap columns early
// instead of stalling on a starved chunk.
func (ce *ChunkedEncoder) EncodeBatch(rng *rand.Rand, count int) ([]*CodedBlock, error) {
	if count < 0 {
		return nil, fmt.Errorf("core: negative batch count %d", count)
	}
	out := make([]*CodedBlock, 0, count)
	for i := 0; i < count; i++ {
		b, err := ce.EncodeChunk(rng, i%ce.layout.Count)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// ChunkedDecoder decodes chunk-coded blocks through a single global
// sparse elimination. Cross-chunk coupling is free: a row folds against
// every pivot row its span reaches, whichever chunk that row came from.
// Like Decoder it decodes one object, the first accepted block's.
type ChunkedDecoder struct {
	layout   *ChunkLayout
	dec      *gfmat.Decoder
	accepted bool
	object   ObjectID // the object of every accepted block, once accepted
}

// NewChunkedDecoder builds a decoder for the layout and payload size.
func NewChunkedDecoder(layout *ChunkLayout, payloadLen int) (*ChunkedDecoder, error) {
	if layout == nil {
		return nil, fmt.Errorf("core: nil chunk layout")
	}
	dec, err := gfmat.NewDecoder(layout.Total, payloadLen)
	if err != nil {
		return nil, fmt.Errorf("core: chunked decoder: %w", err)
	}
	return &ChunkedDecoder{layout: layout, dec: dec}, nil
}

// Layout returns the decoder's chunk layout.
func (cd *ChunkedDecoder) Layout() *ChunkLayout { return cd.layout }

// Add absorbs one coded block. A sparse block must fit inside the span of
// the chunk its Level names — the structural invariant that bounds the
// elimination work — and is eliminated without densifying. A dense block
// (a v1 frame from an older writer, or a repair recombination) is
// absorbed through the unbounded path.
func (cd *ChunkedDecoder) Add(b *CodedBlock) (bool, error) {
	if b == nil {
		return false, fmt.Errorf("core: nil coded block")
	}
	if cd.accepted && b.Object != cd.object {
		return false, fmt.Errorf("%w: %v block offered to the decoder of %v", ErrObjectMismatch, b.Object, cd.object)
	}
	if b.CoeffLen() != cd.layout.Total {
		return false, fmt.Errorf("core: coefficient vector length %d, want %d", b.CoeffLen(), cd.layout.Total)
	}
	sp := b.SpCoeff
	if sp == nil {
		innovative, err := cd.dec.Add(b.Coeff, b.Payload)
		if err != nil {
			return false, fmt.Errorf("core: chunked decode: %w", err)
		}
		cd.accept(b)
		return innovative, nil
	}
	if !cd.layout.ValidChunk(b.Level) {
		return false, fmt.Errorf("core: block names chunk %d outside [0, %d)", b.Level, cd.layout.Count)
	}
	lo, hi := cd.layout.Span(b.Level)
	if slo, shi := sp.Support(); sp.NNZ() > 0 && (slo < lo || shi > hi) {
		return false, fmt.Errorf("core: chunk-%d block has support [%d, %d) outside chunk span [%d, %d)",
			b.Level, slo, shi, lo, hi)
	}
	innovative, err := cd.dec.AddSparse(sp.Idx, sp.Val, b.Payload)
	if err != nil {
		return false, fmt.Errorf("core: chunked decode: %w", err)
	}
	cd.accept(b)
	return innovative, nil
}

// accept records that the elimination took b: from now on only blocks of
// its object are accepted.
func (cd *ChunkedDecoder) accept(b *CodedBlock) {
	cd.accepted = true
	cd.object = b.Object
}

// Rank returns the number of innovative blocks absorbed.
func (cd *ChunkedDecoder) Rank() int { return cd.dec.Rank() }

// Complete reports whether every source block is decoded.
func (cd *ChunkedDecoder) Complete() bool { return cd.dec.Complete() }

// DecodedBlocks returns the number of individually decoded source blocks.
func (cd *ChunkedDecoder) DecodedBlocks() int { return cd.dec.DecodedCount() }

// ChunkDecoded reports whether every source block of chunk i is decoded.
func (cd *ChunkedDecoder) ChunkDecoded(i int) bool {
	if !cd.layout.ValidChunk(i) {
		return false
	}
	lo, hi := cd.layout.Span(i)
	for j := lo; j < hi; j++ {
		if !cd.dec.Decoded(j) {
			return false
		}
	}
	return true
}

// Source returns the decoded payload of source block i.
func (cd *ChunkedDecoder) Source(i int) ([]byte, error) { return cd.dec.Symbol(i) }

// Sources returns all decoded payloads; undecoded entries are nil.
func (cd *ChunkedDecoder) Sources() [][]byte { return cd.dec.Symbols() }
