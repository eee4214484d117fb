package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// End-to-end tests for the sparse representation: band generation, wire
// transit, decode, and recombination must all preserve and exploit
// sparsity without changing any decode observable.

func TestBandEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := mustLevels(t, 64, 64)
	const w = 8
	e, err := NewEncoder(PLC, l, nil, WithBand(w))
	if err != nil {
		t.Fatal(err)
	}
	seenStart := map[int]bool{}
	for trial := 0; trial < 300; trial++ {
		b, err := e.Encode(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !b.IsSparse() {
			t.Fatal("band encoder emitted a dense block")
		}
		sp := b.SpCoeff
		if sp.NNZ() != w {
			t.Fatalf("band block has %d entries, want %d", sp.NNZ(), w)
		}
		lo, hi := sp.Support()
		if hi-lo != w {
			t.Fatalf("band support [%d, %d) is not contiguous width %d", lo, hi, w)
		}
		if lo < 0 || hi > 128 {
			t.Fatalf("band [%d, %d) outside PLC support [0, 128)", lo, hi)
		}
		for i, j := range sp.Idx {
			if int(j) != lo+i {
				t.Fatalf("band entry %d at column %d, want contiguous from %d", i, j, lo)
			}
			if sp.Val[i] == 0 {
				t.Fatalf("band value %d is zero", i)
			}
		}
		seenStart[lo] = true
	}
	// Clamping must keep the edges reachable: both the first and the last
	// legal start position appear in 300 draws w.h.p.
	if !seenStart[0] {
		t.Error("band never started at column 0 (edge starved)")
	}
	if !seenStart[128-w] {
		t.Errorf("band never started at the last legal column %d", 128-w)
	}
}

func TestBandWiderThanSupportIsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := mustLevels(t, 4)
	e, err := NewEncoder(RLC, l, nil, WithBand(100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Encode(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.IsSparse() {
		t.Fatal("band wider than the support should degrade to dense")
	}
	for j, c := range b.Coeff {
		if c == 0 {
			t.Errorf("coeff[%d] = 0, want dense nonzero", j)
		}
	}
}

func TestSparsityAndBandExclusive(t *testing.T) {
	l := mustLevels(t, 4)
	if _, err := NewEncoder(RLC, l, nil, WithSparsity(2), WithBand(2)); err == nil {
		t.Fatal("WithSparsity+WithBand accepted")
	}
}

// TestSparseEndToEnd runs the full pipeline the tentpole is about: sparse
// and banded blocks encode sparse, cross the wire sparse, and decode to
// the exact sources — for every scheme.
func TestSparseEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := mustLevels(t, 32, 32)
	sources := make([][]byte, 64)
	for i := range sources {
		sources[i] = make([]byte, 24)
		rng.Read(sources[i])
	}
	for _, scheme := range []Scheme{RLC, PLC, SLC} {
		for _, opt := range []EncoderOption{WithSparsity(10), WithBand(12)} {
			e, err := NewEncoder(scheme, l, sources, opt)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDecoder(scheme, l, 24)
			if err != nil {
				t.Fatal(err)
			}
			for d.Received() < 2000 && !d.Complete() {
				level := rng.Intn(2)
				b, err := e.Encode(rng, level)
				if err != nil {
					t.Fatal(err)
				}
				if !b.IsSparse() {
					t.Fatalf("%v: encoder densified", scheme)
				}
				data, err := b.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var back CodedBlock
				if err := back.UnmarshalBinary(data); err != nil {
					t.Fatal(err)
				}
				if !back.IsSparse() {
					t.Fatalf("%v: wire transit densified", scheme)
				}
				if _, err := d.Add(&back); err != nil {
					t.Fatalf("%v: add: %v", scheme, err)
				}
			}
			if !d.Complete() {
				t.Fatalf("%v: not complete after %d blocks (rank %d/64)", scheme, d.Received(), d.Rank())
			}
			for i, want := range sources {
				got, err := d.Source(i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v: source %d decoded wrong", scheme, i)
				}
			}
		}
	}
}

func TestDecoderRejectsSparseOutOfSupport(t *testing.T) {
	l := mustLevels(t, 4, 4)
	for _, scheme := range []Scheme{SLC, PLC} {
		d, err := NewDecoder(scheme, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Level 0 support is [0, 4) under both schemes; column 6 violates it.
		b := &CodedBlock{
			Level:   0,
			SpCoeff: &SparseCoeff{Len: 8, Idx: []uint32{1, 6}, Val: []byte{3, 5}},
			Payload: []byte{},
		}
		if _, err := d.Add(b); err == nil {
			t.Fatalf("%v: out-of-support sparse block accepted", scheme)
		}
		if d.Received() != 0 {
			t.Fatalf("%v: rejected block counted as received", scheme)
		}
	}
}

// TestRecombineSparseInputs checks that recombination accepts sparse
// inputs natively and produces the same distribution of outputs as the
// densified equivalents: with the same rng, identical blocks.
func TestRecombineSparseInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := mustLevels(t, 8, 8)
	e, err := NewEncoder(PLC, l, nil, WithSparsity(4))
	if err != nil {
		t.Fatal(err)
	}
	var sparse []*CodedBlock
	var dense []*CodedBlock
	for i := 0; i < 6; i++ {
		b, err := e.Encode(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		b.Payload = []byte{byte(i), byte(2 * i)}
		sparse = append(sparse, b)
		dense = append(dense, &CodedBlock{Level: b.Level, Coeff: b.DenseCoeff(), Payload: b.Payload})
	}
	outS, rankS, err := RecombineRanked(rand.New(rand.NewSource(77)), PLC, l, sparse)
	if err != nil {
		t.Fatal(err)
	}
	outD, rankD, err := RecombineRanked(rand.New(rand.NewSource(77)), PLC, l, dense)
	if err != nil {
		t.Fatal(err)
	}
	if rankS != rankD {
		t.Fatalf("rank sparse %d, dense %d", rankS, rankD)
	}
	if !bytes.Equal(outS.Coeff, outD.Coeff) || !bytes.Equal(outS.Payload, outD.Payload) || outS.Level != outD.Level {
		t.Fatal("recombine output differs between sparse and densified inputs")
	}
	// Mixed sparse and dense inputs are legal too.
	mixed := []*CodedBlock{sparse[0], dense[1], sparse[2]}
	if _, err := Recombine(rng, PLC, l, mixed); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeSeededBandBitIdentical pins that EncodeSeeded produces
// byte-identical band blocks, still carried sparsely, whatever GOMAXPROCS.
func TestEncodeSeededBandBitIdentical(t *testing.T) {
	l := mustLevels(t, 16, 16)
	sources := make([][]byte, 32)
	rng := rand.New(rand.NewSource(17))
	for i := range sources {
		sources[i] = make([]byte, 40)
		rng.Read(sources[i])
	}
	e, err := NewEncoder(PLC, l, sources, WithBand(5))
	if err != nil {
		t.Fatal(err)
	}
	p := PriorityDistribution{0.5, 0.5}
	setProcs(t, 1)
	batch1, err := e.EncodeSeeded(99, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 4)
	batch2, err := e.EncodeSeeded(99, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch1 {
		a, b := batch1[i], batch2[i]
		if a.Level != b.Level || !a.IsSparse() || !b.IsSparse() {
			t.Fatalf("block %d: representation mismatch", i)
		}
		if !bytes.Equal(a.Payload, b.Payload) || !bytes.Equal(a.DenseCoeff(), b.DenseCoeff()) {
			t.Fatalf("block %d: batches differ across GOMAXPROCS", i)
		}
	}
}
