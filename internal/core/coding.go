package core

import "fmt"

// Coding names how a stored object's coefficient vectors are generated
// and represented. AutoCoding picks it from the generation size; nothing
// else selects it.
type Coding int

const (
	// CodingDense draws dense vectors over the full scheme support (the
	// classic PRLC generator, v5 seed frames).
	CodingDense Coding = iota
	// CodingSparse draws LogSparsity(N) nonzero positions per block (the
	// Dimakis-style O(ln N) generator, v3 pairs frames).
	CodingSparse
	// CodingChunked covers the object with overlapping chunks and codes
	// each chunk separately (expander chunked codes).
	CodingChunked
)

// The chunk layout AutoCoding's chunked coding uses, and AutoCoding's
// thresholds. These follow the cost model: dense elimination is cubic in
// N, so it is only the right default while N is small; the sparse
// generator keeps decode cheap into the low thousands; beyond that only
// chunking keeps the per-byte cost flat.
const (
	DefaultChunkSize    = 256
	DefaultChunkOverlap = 32

	autoDenseMax  = 256
	autoSparseMax = 1024
)

func (c Coding) String() string {
	switch c {
	case CodingDense:
		return "dense"
	case CodingSparse:
		return "sparse"
	case CodingChunked:
		return "chunked"
	default:
		return fmt.Sprintf("Coding(%d)", int(c))
	}
}

// AutoCoding picks the coding for a generation of n source blocks: dense
// up to 256, sparse up to 1024, chunked beyond.
func AutoCoding(n int) Coding {
	switch {
	case n <= autoDenseMax:
		return CodingDense
	case n <= autoSparseMax:
		return CodingSparse
	default:
		return CodingChunked
	}
}

// DefaultChunkLayout builds the chunk layout AutoCoding implies for n
// source blocks: DefaultChunkSize/DefaultChunkOverlap, clamped for small
// n (a single chunk when n fits in one).
func DefaultChunkLayout(n int) (*ChunkLayout, error) {
	size, overlap := DefaultChunkSize, DefaultChunkOverlap
	if size > n {
		size = n
		overlap = 0
	}
	return NewChunkLayout(n, size, overlap)
}
