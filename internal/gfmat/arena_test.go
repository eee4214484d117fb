package gfmat

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

// randomSystem encodes numSymbols random source payloads into count dense
// coded blocks and returns (coeffs, codedPayloads, sources).
func randomSystem(t *testing.T, rng *rand.Rand, numSymbols, payloadLen, count int) (coeffs, payloads, sources [][]byte) {
	t.Helper()
	sources = make([][]byte, numSymbols)
	for i := range sources {
		sources[i] = make([]byte, payloadLen)
		rng.Read(sources[i])
	}
	for b := 0; b < count; b++ {
		c := make([]byte, numSymbols)
		p := make([]byte, payloadLen)
		for j := range c {
			c[j] = byte(1 + rng.Intn(255))
			gf256.AddMulSlice(p, sources[j], c[j])
		}
		coeffs = append(coeffs, c)
		payloads = append(payloads, p)
	}
	return coeffs, payloads, sources
}

// TestDecoderArenaRecoversSources is an end-to-end check that the
// arena-backed incremental decoder still recovers every source payload.
func TestDecoderArenaRecoversSources(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, plen = 24, 100
	coeffs, payloads, sources := randomSystem(t, rng, n, plen, n+6)

	d, err := NewDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coeffs {
		if _, err := d.Add(coeffs[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Complete() {
		t.Fatalf("decoder incomplete at rank %d/%d", d.Rank(), n)
	}
	for i, want := range sources {
		got, err := d.Symbol(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("symbol %d decoded incorrectly", i)
		}
	}
}

// TestDecoderAddNonInnovativeNoAlloc pins the satellite behavior: once the
// decoder is full-rank, absorbing dependent rows must not allocate — the
// row is reduced in the scratch buffers and discarded before touching the
// arena.
func TestDecoderAddNonInnovativeNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, plen = 16, 64
	coeffs, payloads, _ := randomSystem(t, rng, n, plen, n+4)

	d, err := NewDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := d.Add(coeffs[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Complete() {
		t.Skipf("random system not full rank after %d rows", n)
	}
	allocs := testing.AllocsPerRun(50, func() {
		innovative, err := d.Add(coeffs[n], payloads[n])
		if err != nil {
			t.Fatal(err)
		}
		if innovative {
			t.Fatal("row innovative past full rank")
		}
	})
	if allocs != 0 {
		t.Fatalf("non-innovative Add allocates %v times, want 0", allocs)
	}
}

// TestDecoderArenaGrowsWithUse pins the chunked arena: a decode that stops
// at the first 64-symbol level of a 512 × 4 KiB decoder, reads included,
// allocates well under the 2.3 MiB a full-size arena would zero.
func TestDecoderArenaGrowsWithUse(t *testing.T) {
	const n, level, plen = 512, 64, 4 << 10
	rng := rand.New(rand.NewSource(12))
	symbols := randomSymbols(rng, n, plen)
	var blocks []levelBlock
	for i := 0; i < level+2; i++ {
		coeff := make([]byte, n)
		rng.Read(coeff[:level])
		blocks = append(blocks, levelBlock{coeff: coeff, payload: encodeWith(coeff, symbols, plen), bound: level})
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := NewDecoder(n, plen)
			if err != nil {
				b.Fatal(err)
			}
			for _, blk := range blocks {
				if _, err := d.AddBounded(blk.coeff, blk.payload, blk.bound); err != nil {
					b.Fatal(err)
				}
				if d.DecodedPrefix() >= level {
					break
				}
			}
			for j := 0; j < level; j++ {
				if _, err := d.Symbol(j); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1<<20 {
		t.Fatalf("level-0 decode allocates %d B per op, want < 1 MiB", got)
	}
}

// TestDecoderMutatingCallerSlices verifies Add still copies its inputs: the
// caller may clobber coeff/payload afterwards without corrupting the
// decoder (the arena rows must be private copies, not aliases).
func TestDecoderMutatingCallerSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, plen = 8, 32
	coeffs, payloads, sources := randomSystem(t, rng, n, plen, n+2)

	d, err := NewDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coeffs {
		if _, err := d.Add(coeffs[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
		// Clobber the caller-owned slices immediately.
		for j := range coeffs[i] {
			coeffs[i][j] = 0xee
		}
		for j := range payloads[i] {
			payloads[i][j] = 0xee
		}
	}
	if !d.Complete() {
		t.Skipf("random system not full rank")
	}
	for i, want := range sources {
		got, err := d.Symbol(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("symbol %d corrupted by caller mutation", i)
		}
	}
}

// TestBatchDecoderArenaSolve checks the arena-backed BatchDecoder against
// the known sources, including re-running Solve after further Adds.
func TestBatchDecoderArenaSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, plen = 20, 48
	coeffs, payloads, sources := randomSystem(t, rng, n, plen, n+10)

	d, err := NewBatchDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := d.Add(coeffs[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	first, err := d.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Feed the redundant rows (spilling into a second arena chunk) and
	// solve again; both solutions must match the sources.
	for i := n; i < len(coeffs); i++ {
		if err := d.Add(coeffs[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	second, err := d.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range sources {
		if !bytes.Equal(first[i], want) || !bytes.Equal(second[i], want) {
			t.Fatalf("batch solution %d incorrect", i)
		}
	}
}

// TestReduceRows builds a row-echelon system by forward elimination and
// checks that ReduceRows produces the identity coefficient matrix and the
// original sources as payloads.
func TestReduceRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, plen = 12, 40
	coeffs, payloads, sources := randomSystem(t, rng, n, plen, n)

	// Forward elimination with pivot normalization (no back-substitution).
	pivotRow := make([]int, n)
	rank := 0
	for col := 0; col < n; col++ {
		p := -1
		for r := rank; r < n; r++ {
			if coeffs[r][col] != 0 {
				p = r
				break
			}
		}
		if p < 0 {
			t.Skipf("random system singular at column %d", col)
		}
		coeffs[p], coeffs[rank] = coeffs[rank], coeffs[p]
		payloads[p], payloads[rank] = payloads[rank], payloads[p]
		inv, err := gf256.Inv(coeffs[rank][col])
		if err != nil {
			t.Fatal(err)
		}
		gf256.ScaleInPlace(coeffs[rank], inv)
		gf256.ScaleInPlace(payloads[rank], inv)
		for r := rank + 1; r < n; r++ {
			if c := coeffs[r][col]; c != 0 {
				gf256.AddMulSlice(coeffs[r], coeffs[rank], c)
				gf256.AddMulSlice(payloads[r], payloads[rank], c)
			}
		}
		pivotRow[col] = rank
		rank++
	}

	ReduceRows(coeffs, payloads, pivotRow)

	for col := 0; col < n; col++ {
		row := coeffs[pivotRow[col]]
		for j, v := range row {
			want := byte(0)
			if j == col {
				want = 1
			}
			if v != want {
				t.Fatalf("RREF violated at row %d col %d: %#02x", pivotRow[col], j, v)
			}
		}
		if !bytes.Equal(payloads[pivotRow[col]], sources[col]) {
			t.Fatalf("ReduceRows payload %d incorrect", col)
		}
	}
}

// TestReduceRowsNilPayloads covers the coefficient-only mode used by
// rank/decodability experiments.
func TestReduceRowsNilPayloads(t *testing.T) {
	coeffs := [][]byte{
		{1, 2, 3},
		{0, 1, 5},
		{0, 0, 1},
	}
	ReduceRows(coeffs, nil, []int{0, 1, 2})
	want := [][]byte{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for i := range want {
		if !bytes.Equal(coeffs[i], want[i]) {
			t.Fatalf("row %d = %v, want %v", i, coeffs[i], want[i])
		}
	}
}

// TestChunkArenaRowIsolation makes sure appends to one arena row can never
// bleed into its neighbor, and that rows survive chunk turnover.
func TestChunkArenaRowIsolation(t *testing.T) {
	var a chunkArena
	a.init(4, 2)
	rows := make([][]byte, 0, 7)
	for i := 0; i < 7; i++ {
		r := a.alloc()
		if len(r) != 4 || cap(r) != 4 {
			t.Fatalf("row %d: len %d cap %d, want 4/4", i, len(r), cap(r))
		}
		for j := range r {
			r[j] = byte(i)
		}
		rows = append(rows, r)
	}
	for i, r := range rows {
		for j, v := range r {
			if v != byte(i) {
				t.Fatalf("row %d byte %d clobbered: %d", i, j, v)
			}
		}
	}
}
