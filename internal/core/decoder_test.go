package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDecoderValidation(t *testing.T) {
	l := mustLevels(t, 2, 2)
	if _, err := NewDecoder(Scheme(0), l, 0); err == nil {
		t.Error("invalid scheme accepted")
	}
	if _, err := NewDecoder(PLC, nil, 0); err == nil {
		t.Error("nil levels accepted")
	}
	if _, err := NewDecoder(PLC, l, -1); err == nil {
		t.Error("negative payload length accepted")
	}
}

func TestAddValidation(t *testing.T) {
	l := mustLevels(t, 2, 2)
	d, err := NewDecoder(SLC, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(nil); err == nil {
		t.Error("nil block accepted")
	}
	if _, err := d.Add(&CodedBlock{Level: 0, Coeff: []byte{1}, Payload: []byte{}}); err == nil {
		t.Error("short coefficient vector accepted")
	}
	// Nonzero coefficient outside the SLC level-0 support [0, 2).
	bad := &CodedBlock{Level: 0, Coeff: []byte{1, 1, 1, 0}, Payload: []byte{}}
	if _, err := d.Add(bad); err == nil {
		t.Error("block violating its support accepted")
	}
	if _, err := d.Add(&CodedBlock{Level: 5, Coeff: make([]byte, 4), Payload: []byte{}}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if d.Received() != 0 {
		t.Errorf("rejected blocks counted as received: %d", d.Received())
	}
}

// roundTrip encodes and decodes under a scheme until complete, checking
// payload fidelity; returns the number of blocks consumed.
func roundTrip(t *testing.T, scheme Scheme, l *Levels, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sources := randomSources(rng, l.Total(), 8)
	e, err := NewEncoder(scheme, l, sources)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(scheme, l, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := NewUniformDistribution(l.Count())
	used := 0
	for !d.Complete() {
		blocks, err := e.EncodeBatch(rng, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Add(blocks[0]); err != nil {
			t.Fatal(err)
		}
		used++
		if used > 100*l.Total() {
			t.Fatalf("%v: no completion after %d blocks", scheme, used)
		}
	}
	for i := range sources {
		got, err := d.Source(i)
		if err != nil {
			t.Fatalf("%v: source %d: %v", scheme, i, err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Fatalf("%v: source %d decoded incorrectly", scheme, i)
		}
	}
	return used
}

func TestRoundTripAllSchemes(t *testing.T) {
	l := mustLevels(t, 4, 6, 10)
	for _, scheme := range []Scheme{RLC, SLC, PLC} {
		used := roundTrip(t, scheme, l, int64(scheme))
		if used < l.Total() {
			t.Errorf("%v completed with %d < N blocks", scheme, used)
		}
	}
}

// TestRLCAllOrNothing verifies the motivating observation: with fewer than
// N coded blocks, RLC decodes nothing.
func TestRLCAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	l := mustLevels(t, 10, 10)
	e, err := NewEncoder(RLC, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(RLC, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l.Total()-1; i++ {
		b, err := e.Encode(rng, rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Add(b); err != nil {
			t.Fatal(err)
		}
		// At M = N-1 a single source block can leak with probability
		// ~(N-1)/256 (the row space of N-1 random rows holds a unit
		// vector), so the hard zero check applies only through N-2 blocks.
		if got := d.DecodedBlocks(); got != 0 && i+1 <= l.Total()-2 {
			t.Fatalf("RLC decoded %d blocks from %d < N-1 coded blocks", got, i+1)
		}
		if got := d.DecodedLevels(); got != 0 {
			t.Fatalf("RLC decoded %d levels early", got)
		}
	}
}

// TestFig1PartialRecovery reproduces the Fig. 1 claim: with levels (1, 2),
// a single level-0 coded block decodes source block 1 under both SLC and
// PLC, while RLC needs all three.
func TestFig1PartialRecovery(t *testing.T) {
	l := mustLevels(t, 1, 2)
	for _, scheme := range []Scheme{SLC, PLC} {
		rng := rand.New(rand.NewSource(31))
		sources := randomSources(rng, 3, 4)
		e, err := NewEncoder(scheme, l, sources)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDecoder(scheme, l, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Encode(rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Add(b); err != nil {
			t.Fatal(err)
		}
		if got := d.DecodedLevels(); got != 1 {
			t.Errorf("%v: DecodedLevels = %d after one level-0 block, want 1", scheme, got)
		}
		got, err := d.Source(0)
		if err != nil {
			t.Errorf("%v: %v", scheme, err)
			continue
		}
		if !bytes.Equal(got, sources[0]) {
			t.Errorf("%v: source 0 decoded incorrectly", scheme)
		}
	}
}

// TestSLCLevelsIndependent verifies that SLC can decode a lower-priority
// level even when higher-priority levels are missing — and that the
// strict-priority DecodedLevels metric still reports 0.
func TestSLCLevelsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	l := mustLevels(t, 3, 3)
	sources := randomSources(rng, 6, 4)
	e, err := NewEncoder(SLC, l, sources)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(SLC, l, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Feed only level-1 blocks.
	for !d.LevelDecoded(1) {
		b, err := e.Encode(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if d.LevelDecoded(0) {
		t.Error("level 0 claims decoded with no blocks")
	}
	if got := d.DecodedLevels(); got != 0 {
		t.Errorf("strict-priority DecodedLevels = %d, want 0", got)
	}
	if got := d.DecodedBlocks(); got != 3 {
		t.Errorf("DecodedBlocks = %d, want 3", got)
	}
	// Blocks of level 1 must be retrievable despite the gap.
	for i := 3; i < 6; i++ {
		got, err := d.Source(i)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Errorf("source %d decoded incorrectly", i)
		}
	}
	if _, err := d.Source(0); err == nil {
		t.Error("undecoded source 0 returned a payload")
	}
}

// TestPLCProgressiveOrder verifies that PLC decodes levels strictly in
// priority order under a stream of mixed-level blocks.
func TestPLCProgressiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	l := mustLevels(t, 5, 5, 5)
	e, err := NewEncoder(PLC, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(PLC, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewUniformDistribution(3)
	prev := 0
	for !d.Complete() {
		blocks, err := e.EncodeBatch(rng, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Add(blocks[0]); err != nil {
			t.Fatal(err)
		}
		cur := d.DecodedLevels()
		if cur < prev {
			t.Fatalf("DecodedLevels went backwards: %d -> %d", prev, cur)
		}
		// Under PLC, LevelDecoded must be a prefix property.
		for k := 0; k < 3; k++ {
			if d.LevelDecoded(k) != (k < cur) {
				t.Fatalf("LevelDecoded(%d) = %v inconsistent with DecodedLevels %d",
					k, d.LevelDecoded(k), cur)
			}
		}
		prev = cur
	}
}

func TestDecoderSourceRangeChecks(t *testing.T) {
	l := mustLevels(t, 2)
	d, err := NewDecoder(PLC, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Source(-1); err == nil {
		t.Error("Source(-1) succeeded, want error")
	}
	if _, err := d.Source(2); err == nil {
		t.Error("Source(out of range) succeeded, want error")
	}
}

func TestSourcesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	l := mustLevels(t, 1, 1)
	sources := randomSources(rng, 2, 2)
	e, err := NewEncoder(PLC, l, sources)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(PLC, l, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Encode(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(b); err != nil {
		t.Fatal(err)
	}
	got := d.Sources()
	if got[1] != nil {
		t.Error("undecoded source has non-nil snapshot")
	}
	if !bytes.Equal(got[0], sources[0]) {
		t.Error("decoded source snapshot wrong")
	}
}

func TestLevelDecodedOutOfRange(t *testing.T) {
	l := mustLevels(t, 2)
	d, err := NewDecoder(SLC, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.LevelDecoded(-1) || d.LevelDecoded(1) {
		t.Error("out-of-range levels reported decoded")
	}
}

func TestReceivedCountsDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	l := mustLevels(t, 2)
	e, err := NewEncoder(RLC, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(RLC, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Encode(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(b); err != nil {
		t.Fatal(err)
	}
	innovative, err := d.Add(b) // exact duplicate
	if err != nil {
		t.Fatal(err)
	}
	if innovative {
		t.Error("duplicate block reported innovative")
	}
	if d.Received() != 2 || d.Rank() != 1 {
		t.Errorf("Received = %d, Rank = %d; want 2, 1", d.Received(), d.Rank())
	}
}

// TestQuickRoundTripRandomStructures fuzzes level structures and schemes,
// checking full decode fidelity end to end.
func TestQuickRoundTripRandomStructures(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(6)
		}
		l, err := NewLevels(sizes...)
		if err != nil {
			return false
		}
		scheme := []Scheme{RLC, SLC, PLC}[rng.Intn(3)]
		sources := randomSources(rng, l.Total(), 4)
		e, err := NewEncoder(scheme, l, sources)
		if err != nil {
			return false
		}
		d, err := NewDecoder(scheme, l, 4)
		if err != nil {
			return false
		}
		p := NewUniformDistribution(n)
		for tries := 0; !d.Complete() && tries < 200*l.Total(); tries++ {
			blocks, err := e.EncodeBatch(rng, p, 1)
			if err != nil {
				return false
			}
			if _, err := d.Add(blocks[0]); err != nil {
				return false
			}
		}
		if !d.Complete() {
			return false
		}
		for i := range sources {
			got, err := d.Source(i)
			if err != nil || !bytes.Equal(got, sources[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

// TestSparseDecodesWithLogCoefficients checks the Dimakis-based Sec. 4
// efficiency claim at small scale: sparse PLC with 3·ln(N) nonzero
// coefficients still reaches full decode with modest overhead.
func TestSparseDecodesWithLogCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	l, err := UniformLevels(5, 20) // N = 100
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEncoder(PLC, l, nil, WithSparsity(LogSparsity(l.Total())))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(PLC, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewUniformDistribution(5)
	used := 0
	for !d.Complete() && used < 5*l.Total() {
		blocks, err := e.EncodeBatch(rng, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Add(blocks[0]); err != nil {
			t.Fatal(err)
		}
		used++
	}
	if !d.Complete() {
		t.Fatalf("sparse PLC did not complete within %d blocks", used)
	}
}

// TestDecoderOneObject: a decoder decodes the object of the first block
// it accepts. A block of another object — same geometry, so nothing else
// tells them apart — is refused with ErrObjectMismatch, and the first
// object still decodes bit-exact. The chunked
// decoder keeps the same rule.
func TestDecoderOneObject(t *testing.T) {
	l := mustLevels(t, 3, 5)
	rng := rand.New(rand.NewSource(41))
	objA, objB := NamedObject("a"), NamedObject("b")
	srcA, srcB := randomSources(rng, l.Total(), 8), randomSources(rng, l.Total(), 8)
	encA, err := NewEncoder(PLC, l, srcA)
	if err != nil {
		t.Fatal(err)
	}
	encB, err := NewEncoder(PLC, l, srcB)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(PLC, l, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := NewUniformDistribution(l.Count())
	for i := 0; !d.Complete(); i++ {
		if i > 100*l.Total() {
			t.Fatalf("no completion after %d blocks", i)
		}
		a, err := encA.EncodeBatch(rng, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		a[0].Object = objA
		if _, err := d.Add(a[0]); err != nil {
			t.Fatal(err)
		}
		b, err := encB.EncodeBatch(rng, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		b[0].Object = objB
		if _, err := d.Add(b[0]); !errors.Is(err, ErrObjectMismatch) {
			t.Fatalf("block of another object: err = %v, want ErrObjectMismatch", err)
		}
	}
	for i, want := range srcA {
		if got, err := d.Source(i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("source %d of the first object: %v", i, err)
		}
	}

	layout, err := NewChunkLayout(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := NewChunkedEncoder(layout, srcA)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := NewChunkedDecoder(layout, 8)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ce.EncodeChunk(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := first.Clone()
	first.Object, other.Object = objB, objA
	if _, err := cd.Add(first); err != nil {
		t.Fatalf("first chunked block refused: %v", err)
	}
	if _, err := cd.Add(other); !errors.Is(err, ErrObjectMismatch) {
		t.Fatalf("chunked block of another object: err = %v, want ErrObjectMismatch", err)
	}
}

// TestRejectedFirstBlockDoesNotPinObject: a first block the elimination
// refuses — here another object's, with a payload of the wrong length —
// must leave the decoder unpinned, so the real object's blocks are all
// accepted afterwards and Received counts only those. Covers the dense
// and sparse paths of Decoder, flat and per-level, and both paths of
// ChunkedDecoder.
func TestRejectedFirstBlockDoesNotPinObject(t *testing.T) {
	const plen = 8
	l := mustLevels(t, 3, 5)
	rng := rand.New(rand.NewSource(43))
	obj, stray := NamedObject("real"), NamedObject("stray")
	src := randomSources(rng, l.Total(), plen)
	p := NewUniformDistribution(l.Count())
	for _, tc := range []struct {
		scheme Scheme
		opts   []EncoderOption
	}{
		{PLC, nil},
		{PLC, []EncoderOption{WithSparsity(2)}},
		{SLC, nil},
		{SLC, []EncoderOption{WithSparsity(2)}},
	} {
		enc, err := NewEncoder(tc.scheme, l, src, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDecoder(tc.scheme, l, plen)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := enc.EncodeBatch(rng, p, 4*l.Total())
		if err != nil {
			t.Fatal(err)
		}
		bad := blocks[0].Clone()
		bad.Object, bad.Payload = stray, bad.Payload[:plen-1]
		if _, err := d.Add(bad); err == nil {
			t.Fatalf("%v: short payload accepted", tc.scheme)
		}
		if d.Received() != 0 {
			t.Fatalf("%v: rejected block counted as received", tc.scheme)
		}
		for i, b := range blocks {
			b.Object = obj
			if _, err := d.Add(b); err != nil {
				t.Fatalf("%v: block %d of the real object: %v", tc.scheme, i, err)
			}
			if d.Received() != i+1 {
				t.Fatalf("%v: Received = %d after %d accepted blocks", tc.scheme, d.Received(), i+1)
			}
		}
	}

	layout, err := NewChunkLayout(l.Total(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := NewChunkedEncoder(layout, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, dense := range []bool{false, true} {
		cd, err := NewChunkedDecoder(layout, plen)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := ce.EncodeBatch(rng, 2*l.Total())
		if err != nil {
			t.Fatal(err)
		}
		if dense {
			for _, b := range blocks {
				b.Coeff, b.SpCoeff = b.DenseCoeff(), nil
			}
		}
		bad := blocks[0].Clone()
		bad.Object, bad.Payload = stray, bad.Payload[:plen-1]
		if _, err := cd.Add(bad); err == nil {
			t.Fatalf("chunked (dense %v): short payload accepted", dense)
		}
		for i, b := range blocks {
			b.Object = obj
			if _, err := cd.Add(b); err != nil {
				t.Fatalf("chunked (dense %v): block %d of the real object: %v", dense, i, err)
			}
		}
	}
}

// TestFacadeRoundTrip exercises the coding layer end to end: encode
// three levels of payloads one block at a time and recover every source
// byte for byte.
func TestFacadeRoundTrip(t *testing.T) {
	levels, err := NewLevels(2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 16)
		rng.Read(sources[i])
	}
	enc, err := NewEncoder(PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(PLC, levels, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := PriorityDistribution{0.5, 0.3, 0.2}
	for !dec.Complete() {
		blocks, err := enc.EncodeBatch(rng, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Add(blocks[0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sources {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Fatalf("source %d corrupted", i)
		}
	}
}
