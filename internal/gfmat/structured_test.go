package gfmat

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// Tests for the structure-aware decode path: level-truncated rows
// (AddBounded), agreement with the dense RefDecoder oracle after every
// Add, on-demand answers past the decoded prefix, and the striped payload
// folds.

// levelBlock is one synthetic level-structured coded block: coefficients
// supported on [lo, hi), so hi doubles as the AddBounded boundary hint.
type levelBlock struct {
	coeff   []byte
	payload []byte
	bound   int
}

// randomLevelBlocks generates level-structured blocks over n symbols split
// into nLevels equal levels: per level, rowsPerLevel rows shaped either
// like PLC (support [0, b_k)) or like SLC (support [b_{k-1}, b_k)),
// shuffled so decoders see levels interleaved. n must be a multiple of
// nLevels.
func randomLevelBlocks(rng *rand.Rand, symbols [][]byte, n, nLevels, plen, rowsPerLevel int, slcShaped bool) []levelBlock {
	per := n / nLevels
	var blocks []levelBlock
	for lvl := 0; lvl < nLevels; lvl++ {
		lo, hi := lvl*per, (lvl+1)*per
		if !slcShaped {
			lo = 0
		}
		for r := 0; r < rowsPerLevel; r++ {
			coeff := make([]byte, n)
			for j := lo; j < hi; j++ {
				coeff[j] = byte(rng.Intn(256))
			}
			blocks = append(blocks, levelBlock{coeff: coeff, payload: encodeWith(coeff, symbols, plen), bound: hi})
		}
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	return blocks
}

func randomSymbols(rng *rand.Rand, n, plen int) [][]byte {
	symbols := make([][]byte, n)
	for i := range symbols {
		symbols[i] = make([]byte, plen)
		rng.Read(symbols[i])
	}
	return symbols
}

// decoderView is what Decoder and RefDecoder both answer.
type decoderView interface {
	NumSymbols() int
	Rank() int
	DecodedPrefix() int
	DecodedCount() int
	Decoded(i int) bool
	Symbol(i int) ([]byte, error)
	CoefficientMatrix() (*Matrix, error)
}

// addBoth feeds one dense block to a Decoder (bounded) and its RefDecoder
// oracle and fails unless they agree on whether it was innovative.
func addBoth(t *testing.T, d *Decoder, ref *RefDecoder, b levelBlock) {
	t.Helper()
	i1, err := d.AddBounded(b.coeff, b.payload, b.bound)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := ref.Add(b.coeff, b.payload)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Fatalf("innovation disagrees: decoder %v, reference %v", i1, i2)
	}
}

// newPair returns a Decoder and a RefDecoder of the same shape.
func newPair(t *testing.T, n, plen int) (*Decoder, *RefDecoder) {
	t.Helper()
	d, err := NewDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	return d, ref
}

// compareDecoders asserts two decoders that absorbed the same blocks agree
// on every observable: rank, prefix, per-symbol decodability and value, and
// the RREF coefficient matrix itself.
func compareDecoders(t *testing.T, a, b decoderView, label string) {
	t.Helper()
	if a.Rank() != b.Rank() {
		t.Fatalf("%s: rank %d vs %d", label, a.Rank(), b.Rank())
	}
	if a.DecodedPrefix() != b.DecodedPrefix() {
		t.Fatalf("%s: prefix %d vs %d", label, a.DecodedPrefix(), b.DecodedPrefix())
	}
	if a.DecodedCount() != b.DecodedCount() {
		t.Fatalf("%s: decoded count %d vs %d", label, a.DecodedCount(), b.DecodedCount())
	}
	for i := 0; i < a.NumSymbols(); i++ {
		if a.Decoded(i) != b.Decoded(i) {
			t.Fatalf("%s: Decoded(%d) %v vs %v", label, i, a.Decoded(i), b.Decoded(i))
		}
		if a.Decoded(i) {
			sa, err := a.Symbol(i)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := b.Symbol(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sa, sb) {
				t.Fatalf("%s: symbol %d differs", label, i)
			}
		}
	}
	ma, err := a.CoefficientMatrix()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.CoefficientMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if !ma.Equal(mb) {
		t.Fatalf("%s: coefficient matrices differ:\n%s\nvs\n%s", label, ma, mb)
	}
}

// TestAddBoundedMatchesAdd: feeding the same level-structured blocks with
// and without boundary hints must produce identical decoder state — the
// hints are a performance lever, never a semantic one.
func TestAddBoundedMatchesAdd(t *testing.T) {
	for _, slcShaped := range []bool{false, true} {
		rng := rand.New(rand.NewSource(31))
		const n, nLevels, plen = 12, 3, 5
		symbols := randomSymbols(rng, n, plen)
		blocks := randomLevelBlocks(rng, symbols, n, nLevels, plen, n/nLevels+2, slcShaped)

		plain, err := NewDecoder(n, plen)
		if err != nil {
			t.Fatal(err)
		}
		hinted, err := NewDecoder(n, plen)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			i1, err := plain.Add(b.coeff, b.payload)
			if err != nil {
				t.Fatal(err)
			}
			i2, err := hinted.AddBounded(b.coeff, b.payload, b.bound)
			if err != nil {
				t.Fatal(err)
			}
			if i1 != i2 {
				t.Fatalf("innovation disagrees: %v vs %v", i1, i2)
			}
		}
		label := "plc-shaped"
		if slcShaped {
			label = "slc-shaped"
		}
		compareDecoders(t, plain, hinted, label)
		if !plain.Complete() {
			t.Fatalf("%s: system should be complete (rank %d/%d)", label, plain.Rank(), n)
		}
	}
}

// TestRefDecoderMatchesDecoder: the decoder and the dense reference must
// agree on every observable after every Add — for PLC- and SLC-shaped
// streams, and whether or not the decoder is queried along the way (a
// query may commit a row solved past the prefix, which changes later
// folds but never an answer).
func TestRefDecoderMatchesDecoder(t *testing.T) {
	for _, slcShaped := range []bool{false, true} {
		rng := rand.New(rand.NewSource(32))
		const n, nLevels, plen = 12, 4, 3
		symbols := randomSymbols(rng, n, plen)
		blocks := randomLevelBlocks(rng, symbols, n, nLevels, plen, n/nLevels+2, slcShaped)

		queried, ref := newPair(t, n, plen)
		quiet, err := NewDecoder(n, plen)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			addBoth(t, queried, ref, b)
			if _, err := quiet.AddBounded(b.coeff, b.payload, b.bound); err != nil {
				t.Fatal(err)
			}
			compareDecoders(t, queried, ref, fmt.Sprintf("slc=%v after block %d", slcShaped, i))
		}
		compareDecoders(t, quiet, ref, fmt.Sprintf("slc=%v unqueried", slcShaped))
		if !quiet.Complete() {
			t.Fatalf("system should be complete (rank %d/%d)", quiet.Rank(), n)
		}
	}
}

// TestHighestLevelFirst feeds a PLC stream with every level's blocks
// before any lower level's, the order that makes a leftmost-pivot decoder
// back-substitute the most: each arrival is compared with the reference,
// and nothing decodes until level 0 does.
func TestHighestLevelFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const n, nLevels, plen = 16, 4, 7
	symbols := randomSymbols(rng, n, plen)
	blocks := randomLevelBlocks(rng, symbols, n, nLevels, plen, n/nLevels+1, false)
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].bound > blocks[j].bound })

	d, ref := newPair(t, n, plen)
	for i, b := range blocks {
		addBoth(t, d, ref, b)
		compareDecoders(t, d, ref, fmt.Sprintf("after block %d", i))
		if b.bound > n/nLevels && d.DecodedPrefix() != 0 {
			t.Fatalf("block %d (bound %d): prefix %d before any level-0 block", i, b.bound, d.DecodedPrefix())
		}
	}
	if !d.Complete() {
		t.Fatalf("rank %d/%d", d.Rank(), n)
	}
	for i := range symbols {
		if got, _ := d.Symbol(i); !bytes.Equal(got, symbols[i]) {
			t.Fatalf("symbol %d decoded wrong", i)
		}
	}
}

// TestDecodedPastPrefix: in an SLC-shaped stream whose first level is
// short of rank, the later levels still decode — every symbol of them is
// Decoded with its payload while DecodedPrefix stays 0, and SolvedRows
// counts only rows that arrived solved or a query has confirmed.
func TestDecodedPastPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n, nLevels, plen = 12, 3, 5
	symbols := randomSymbols(rng, n, plen)
	blocks := randomLevelBlocks(rng, symbols, n, nLevels, plen, n/nLevels+1, true)
	d, ref := newPair(t, n, plen)
	dropped := 0
	for _, b := range blocks {
		// Starve level 0 ([0, 4)) of all but two blocks.
		if b.bound == n/nLevels && dropped < n/nLevels-1 {
			dropped++
			continue
		}
		addBoth(t, d, ref, b)
	}
	if d.DecodedPrefix() != 0 || d.SolvedRows() >= n-n/nLevels {
		t.Fatalf("prefix %d, solved rows %d before any query; want 0 and < %d",
			d.DecodedPrefix(), d.SolvedRows(), n-n/nLevels)
	}
	compareDecoders(t, d, ref, "starved level 0")
	for i := n / nLevels; i < n; i++ {
		got, err := d.Symbol(i)
		if err != nil {
			t.Fatalf("symbol %d past the prefix: %v", i, err)
		}
		if !bytes.Equal(got, symbols[i]) {
			t.Fatalf("symbol %d decoded wrong", i)
		}
	}
	if got, want := d.SolvedRows(), n-n/nLevels; got != want {
		t.Errorf("SolvedRows after queries = %d, want %d", got, want)
	}
}

// TestDependentAfterComplete: once the decode is complete, further blocks
// are dependent, leave every answer alone and never touch the payloads.
func TestDependentAfterComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const n, nLevels, plen = 8, 2, 6
	symbols := randomSymbols(rng, n, plen)
	blocks := randomLevelBlocks(rng, symbols, n, nLevels, plen, n/nLevels+3, false)
	d, ref := newPair(t, n, plen)
	for i, b := range blocks {
		complete := d.Complete()
		addBoth(t, d, ref, b)
		compareDecoders(t, d, ref, fmt.Sprintf("after block %d", i))
		if complete && (d.Rank() != n || d.DecodedPrefix() != n) {
			t.Fatalf("block %d after completion changed rank/prefix to %d/%d", i, d.Rank(), d.DecodedPrefix())
		}
	}
	if !d.Complete() {
		t.Fatalf("rank %d/%d", d.Rank(), n)
	}
	// A block carrying a garbage payload is dependent, so it must not leak
	// into any symbol.
	junk := make([]byte, plen)
	rng.Read(junk)
	if innov, err := d.Add(blocks[0].coeff, junk); err != nil || innov {
		t.Fatalf("dependent block after completion: innovative=%v err=%v", innov, err)
	}
	for i := range symbols {
		if got, _ := d.Symbol(i); !bytes.Equal(got, symbols[i]) {
			t.Fatalf("symbol %d changed by a dependent block", i)
		}
	}
}

func TestAddBoundedValidation(t *testing.T) {
	d, err := NewDecoder(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	coeff := []byte{1, 2, 3, 4}
	if _, err := d.AddBounded(coeff, nil, -1); err == nil {
		t.Error("negative bound accepted")
	}
	if _, err := d.AddBounded(coeff, nil, 5); err == nil {
		t.Error("bound beyond numSymbols accepted")
	}
	if _, err := d.AddBounded(coeff, nil, 4); err != nil {
		t.Errorf("bound == numSymbols rejected: %v", err)
	}
	// A zero bound is a legal (if useless) promise: the block is all-zero.
	if innov, err := d.AddBounded(make([]byte, 4), nil, 0); err != nil || innov {
		t.Errorf("zero bound: innovative=%v err=%v, want false, nil", innov, err)
	}
}

// TestDecodedCountIncremental cross-checks DecodedCount against a brute
// recount of Decoded after every absorbed block.
func TestDecodedCountIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n, nLevels = 10, 5
	symbols := randomSymbols(rng, n, 0)
	blocks := randomLevelBlocks(rng, symbols, n, nLevels, 0, n/nLevels+1, true)
	d, err := NewDecoder(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := d.AddBounded(b.coeff, b.payload, b.bound); err != nil {
			t.Fatal(err)
		}
		brute := 0
		for i := 0; i < n; i++ {
			if d.Decoded(i) {
				brute++
			}
		}
		if got := d.DecodedCount(); got != brute {
			t.Fatalf("DecodedCount = %d, brute recount = %d", got, brute)
		}
	}
}

// setProcs sets GOMAXPROCS to n until the test ends. The striped folds
// take their fan-out from it, so this is how a test picks a worker count.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPayloadStripesBitIdentical: with payloads above the striping
// threshold, decoded output must be byte-identical for any GOMAXPROCS.
func TestPayloadStripesBitIdentical(t *testing.T) {
	const n, nLevels, plen = 6, 3, payloadStripeMin + 777
	rng := rand.New(rand.NewSource(34))
	symbols := randomSymbols(rng, n, plen)
	blocks := randomLevelBlocks(rng, symbols, n, nLevels, plen, n/nLevels+1, false)

	decode := func(procs int) *Decoder {
		setProcs(t, procs)
		d, err := NewDecoder(n, plen)
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
	if !base.Complete() {
		t.Fatalf("system incomplete: rank %d/%d", base.Rank(), n)
	}
	for i := range symbols {
		got, err := base.Symbol(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, symbols[i]) {
			t.Fatalf("symbol %d decoded incorrectly", i)
		}
	}
	for _, procs := range []int{2, 3, 4, 7} {
		compareDecoders(t, base, decode(procs), fmt.Sprintf("GOMAXPROCS 1 vs %d", procs))
	}
}

// TestStripedMatchesRef: with payloads above the striping threshold and
// GOMAXPROCS at four, both payload jobs — an arrival's forward folds and
// the prefix solve — run striped, and every answer after every Add
// matches the sequential reference. Run under -race, this also checks the
// stripes stay disjoint.
func TestStripedMatchesRef(t *testing.T) {
	const n, nLevels, plen = 8, 4, payloadStripeMin + 4097
	setProcs(t, 4)
	rng := rand.New(rand.NewSource(39))
	symbols := randomSymbols(rng, n, plen)
	blocks := randomLevelBlocks(rng, symbols, n, nLevels, plen, n/nLevels+1, false)
	d, ref := newPair(t, n, plen)
	for i, b := range blocks {
		addBoth(t, d, ref, b)
		compareDecoders(t, d, ref, fmt.Sprintf("after block %d", i))
	}
	if !d.Complete() {
		t.Fatalf("rank %d/%d", d.Rank(), n)
	}
	for i := range symbols {
		if got, _ := d.Symbol(i); !bytes.Equal(got, symbols[i]) {
			t.Fatalf("symbol %d decoded wrong", i)
		}
	}
}

// TestStripeWorkers pins the fan-out rule: sequential below the striping
// threshold, GOMAXPROCS from it on.
func TestStripeWorkers(t *testing.T) {
	setProcs(t, 3)
	for _, tc := range []struct{ plen, want int }{
		{0, 1}, {4 << 10, 1}, {payloadStripeMin - 1, 1}, {payloadStripeMin, 3}, {1 << 20, 3},
	} {
		if got := stripeWorkers(tc.plen); got != tc.want {
			t.Errorf("stripeWorkers(%d) = %d, want %d", tc.plen, got, tc.want)
		}
	}
}

// TestCoefficientMatrixEmpty guards the satellite fix: an empty decoder
// yields a valid zero-row matrix, not a silent nil.
func TestCoefficientMatrixEmpty(t *testing.T) {
	d, err := NewDecoder(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.CoefficientMatrix()
	if err != nil {
		t.Fatalf("CoefficientMatrix on empty decoder: %v", err)
	}
	if m == nil {
		t.Fatal("CoefficientMatrix returned nil matrix without error")
	}
	if m.Rows() != 0 || m.Cols() != 3 {
		t.Errorf("dims = %dx%d, want 0x3", m.Rows(), m.Cols())
	}
}

// TestBatchAddBoundedSolveMatchesDense: the truncated batch elimination
// must solve to the same payloads as the dense one.
func TestBatchAddBoundedSolveMatchesDense(t *testing.T) {
	for _, slcShaped := range []bool{false, true} {
		rng := rand.New(rand.NewSource(35))
		const n, nLevels, plen = 12, 3, 4
		symbols := randomSymbols(rng, n, plen)
		blocks := randomLevelBlocks(rng, symbols, n, nLevels, plen, n/nLevels+2, slcShaped)

		bounded, err := NewBatchDecoder(n, plen)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewBatchDecoder(n, plen)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if err := bounded.AddBounded(b.coeff, b.payload, b.bound); err != nil {
				t.Fatal(err)
			}
			if err := dense.Add(b.coeff, b.payload); err != nil {
				t.Fatal(err)
			}
		}
		sb, err := bounded.Solve()
		if err != nil {
			t.Fatal(err)
		}
		sd, err := dense.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for i := range symbols {
			if !bytes.Equal(sb[i], symbols[i]) {
				t.Fatalf("bounded solve: symbol %d wrong", i)
			}
			if !bytes.Equal(sb[i], sd[i]) {
				t.Fatalf("bounded vs dense solve: symbol %d differs", i)
			}
		}
	}
}

func TestBatchAddBoundedValidation(t *testing.T) {
	d, err := NewBatchDecoder(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddBounded([]byte{1, 2, 3}, nil, -1); err == nil {
		t.Error("negative bound accepted")
	}
	if err := d.AddBounded([]byte{1, 2, 3}, nil, 4); err == nil {
		t.Error("bound beyond numSymbols accepted")
	}
}
