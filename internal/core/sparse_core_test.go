package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// End-to-end tests for the sparse representation: generation, wire
// transit, decode, and recombination must all preserve and exploit
// sparsity without changing any decode observable.

// TestSparseEndToEnd runs the full pipeline: sparse blocks encode sparse,
// cross the wire sparse, and decode to the exact sources — for every
// scheme.
func TestSparseEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := mustLevels(t, 32, 32)
	sources := make([][]byte, 64)
	for i := range sources {
		sources[i] = make([]byte, 24)
		rng.Read(sources[i])
	}
	for _, scheme := range []Scheme{RLC, PLC, SLC} {
		e, err := NewEncoder(scheme, l, sources, WithSparsity(10))
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
