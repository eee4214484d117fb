package gfmat

// Row arena. Both decoders used to allocate two fresh slices per absorbed
// block; at production block counts the garbage collector ends up doing a
// measurable share of the decode work. chunkArena hands out rows sliced
// from larger backing arrays instead: rows are carved out of fixed-size
// chunks, and a fresh chunk is allocated when the current one runs out.
// Previously handed-out rows always stay valid — exhausted chunks are left
// alone, only the arena's current-chunk pointer moves on. The incremental
// Decoder allocates decoderChunkRows rows at a time (fewer for a smaller
// decoder), so a partial decode pays for what it used; BatchDecoder, which
// may buffer arbitrarily many redundant blocks, numSymbols at a time.
type chunkArena struct {
	rowLen    int
	chunkRows int
	cur       []byte
	off       int
}

func (a *chunkArena) init(rowLen, chunkRows int) {
	a.rowLen = rowLen
	if chunkRows < 1 {
		chunkRows = 1
	}
	a.chunkRows = chunkRows
}

// alloc returns the next zeroed row, a slice of rowLen bytes with its
// capacity clamped so appends cannot bleed into the neighboring row,
// starting a new chunk when needed.
func (a *chunkArena) alloc() []byte {
	if a.rowLen == 0 {
		return []byte{}
	}
	if a.off+a.rowLen > len(a.cur) {
		a.cur = make([]byte, a.chunkRows*a.rowLen)
		a.off = 0
	}
	row := a.cur[a.off : a.off+a.rowLen : a.off+a.rowLen]
	a.off += a.rowLen
	return row
}
