package core

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		b := &CodedBlock{
			Level:   rng.Intn(100),
			Coeff:   make([]byte, rng.Intn(50)),
			Payload: make([]byte, rng.Intn(50)),
		}
		rng.Read(b.Coeff)
		rng.Read(b.Payload)
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got CodedBlock
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if got.Level != b.Level || !bytes.Equal(got.Coeff, b.Coeff) || !bytes.Equal(got.Payload, b.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, b)
		}
	}
}

func TestMarshalLevelBounds(t *testing.T) {
	b := &CodedBlock{Level: 1 << 17}
	if _, err := b.MarshalBinary(); err == nil {
		t.Error("oversized level accepted")
	}
	b.Level = -1
	if _, err := b.MarshalBinary(); err == nil {
		t.Error("negative level accepted")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("XX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"),   // bad magic
		[]byte("PB\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00"),   // bad version
		[]byte("PB\x01\x00\x00\x00\x00\x00\x05\x00\x00\x00"),   // header wants 5 coeff bytes, none present
		[]byte("PB\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00ab"), // one trailing byte too many
	}
	var b CodedBlock
	for i, data := range cases {
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("garbage %d accepted", i)
		}
	}
}

func TestUnmarshalCopiesInput(t *testing.T) {
	src := &CodedBlock{Level: 1, Coeff: []byte{1, 2}, Payload: []byte{3}}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got CodedBlock
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	data[wireHeader] = 99 // mutate the buffer
	if got.Coeff[0] != 1 {
		t.Error("UnmarshalBinary aliased the input buffer")
	}
}

func TestMarshalSparseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		dense := make([]byte, n)
		for j := range dense {
			if rng.Intn(3) == 0 {
				dense[j] = byte(1 + rng.Intn(255))
			}
		}
		// Half the trials use a contiguous band so the span mode is hit.
		if n > 0 && trial%2 == 0 {
			clear(dense)
			w := 1 + rng.Intn(n)
			start := rng.Intn(n - w + 1)
			for j := start; j < start+w; j++ {
				dense[j] = byte(1 + rng.Intn(255))
			}
		}
		b := &CodedBlock{
			Level:   rng.Intn(100),
			SpCoeff: SparsifyCoeff(dense),
			Payload: make([]byte, rng.Intn(30)),
		}
		rng.Read(b.Payload)
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got CodedBlock
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if !got.IsSparse() || got.Coeff != nil {
			t.Fatalf("trial %d: sparse block came back dense", trial)
		}
		if got.Level != b.Level || !bytes.Equal(got.Payload, b.Payload) {
			t.Fatalf("trial %d: level/payload mismatch", trial)
		}
		if !bytes.Equal(got.DenseCoeff(), dense) {
			t.Fatalf("trial %d: coefficients mismatch after round trip", trial)
		}
		// Canonical encoding: the round-tripped block re-marshals
		// bit-identically.
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("trial %d: re-marshal differs", trial)
		}
		if len(data) != b.WireSize() {
			t.Fatalf("trial %d: WireSize %d, marshaled %d", trial, b.WireSize(), len(data))
		}
	}
}

// TestMarshalSparseShrinksWire pins the point of the v3 encoding: an
// O(ln N)-sparse vector's coefficient section is a small fraction of the
// dense one.
func TestMarshalSparseShrinksWire(t *testing.T) {
	n := 4096
	d := LogSparsity(n) // 25 for n=4096
	dense := make([]byte, n)
	for i := 0; i < d; i++ {
		dense[i*(n/d)] = byte(1 + i)
	}
	sparse := &CodedBlock{SpCoeff: SparsifyCoeff(dense), Payload: []byte{1}}
	denseB := &CodedBlock{Coeff: dense, Payload: []byte{1}}
	if sparse.WireSize()*10 > denseB.WireSize() {
		t.Fatalf("sparse wire %d not ≪ dense wire %d", sparse.WireSize(), denseB.WireSize())
	}
}

func TestUnmarshalSparseRejectsHostile(t *testing.T) {
	hdr := func(nCoeff, nPay int) []byte {
		out := []byte("PB\x03")
		out = append(out, 0, 7) // level 7
		out = binary.BigEndian.AppendUint32(out, uint32(nCoeff))
		out = binary.BigEndian.AppendUint32(out, uint32(nPay))
		return out
	}
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := map[string][]byte{
		"truncated mode byte":  hdr(8, 0),
		"unknown mode":         cat(hdr(8, 0), []byte{9}, u32(0)),
		"pairs count inflated": cat(hdr(8, 0), []byte{0}, u32(1<<30), u32(1), []byte{5}),
		"pairs count short":    cat(hdr(8, 0), []byte{0}, u32(2), u32(1), []byte{5}),
		"index out of range":   cat(hdr(8, 0), []byte{0}, u32(1), u32(8), []byte{5}),
		"duplicate index":      cat(hdr(8, 0), []byte{0}, u32(2), u32(3), u32(3), []byte{5, 6}),
		"decreasing index":     cat(hdr(8, 0), []byte{0}, u32(2), u32(4), u32(2), []byte{5, 6}),
		"zero pair value":      cat(hdr(8, 0), []byte{0}, u32(1), u32(3), []byte{0}),
		"span width zero":      cat(hdr(8, 0), []byte{1}, u32(0), u32(0)),
		"span out of range":    cat(hdr(8, 0), []byte{1}, u32(5), u32(4), []byte{1, 2, 3, 4}),
		"span overflow":        cat(hdr(8, 0), []byte{1}, u32(1<<31), u32(1<<31), []byte{1}),
		"span zero lead edge":  cat(hdr(8, 0), []byte{1}, u32(0), u32(8), []byte{0, 1, 2, 3, 4, 5, 6, 7}),
		"span zero tail edge":  cat(hdr(8, 0), []byte{1}, u32(0), u32(8), []byte{1, 2, 3, 4, 5, 6, 7, 0}),
		"span where pairs win": cat(hdr(64, 0), []byte{1}, u32(0), u32(8), []byte{1, 0, 0, 0, 0, 0, 0, 2}),
		"pairs where span wins": cat(hdr(64, 0), []byte{0}, u32(3),
			u32(0), u32(1), u32(2), []byte{1, 2, 3}),
		"huge claimed nCoeff": cat(hdr(1<<30, 0), []byte{0}, u32(0)),
		"payload truncated":   cat(hdr(8, 4), []byte{0}, u32(0), []byte{1, 2}),
	}
	for name, data := range cases {
		var b CodedBlock
		err := b.UnmarshalBinary(data)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrWireFormat) {
			t.Errorf("%s: error %v does not wrap ErrWireFormat", name, err)
		}
	}
}

// TestUnmarshalDenseBitIdentical pins that the v1 dense encoding is
// byte-for-byte what it was before v3 existed, and still decodes.
func TestUnmarshalDenseBitIdentical(t *testing.T) {
	b := &CodedBlock{Level: 3, Coeff: []byte{1, 0, 2}, Payload: []byte{9, 9}}
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("PB\x01\x00\x03\x00\x00\x00\x03\x00\x00\x00\x02\x01\x00\x02\x09\x09")
	if !bytes.Equal(data, want) {
		t.Fatalf("v1 encoding drifted:\ngot  %x\nwant %x", data, want)
	}
	var got CodedBlock
	if err := got.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	if got.IsSparse() || !bytes.Equal(got.Coeff, b.Coeff) {
		t.Fatalf("v1 frame decoded wrong: %+v", got)
	}
}

// FuzzUnmarshalBinary hardens the wire parser: arbitrary input must never
// panic, and accepted input must re-marshal identically. The aliasing
// entry point and CheckWire must accept exactly the same frames, the
// former re-marshal to the same bytes (the seeds cover v1–v5), leave its
// input untouched, and hand out sections that cannot grow into one
// another. What an accepted frame makes the parser build is bounded by
// the frame itself, plus at most maxSeedCoeffLen expanded coefficients.
func FuzzUnmarshalBinary(f *testing.F) {
	seed := &CodedBlock{Level: 3, Coeff: []byte{1, 0, 2}, Payload: []byte{9, 9}}
	data, err := seed.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:5])
	f.Add([]byte("PB\x01"))
	sparsePairs := &CodedBlock{Level: 1, SpCoeff: SparsifyCoeff([]byte{0, 7, 0, 0, 0, 0, 0, 9}), Payload: []byte{4}}
	band := make([]byte, 64)
	for i := 10; i < 40; i++ {
		band[i] = byte(i)
	}
	sparseSpan := &CodedBlock{Level: 2, SpCoeff: SparsifyCoeff(band), Payload: []byte{}}
	keyedDense := &CodedBlock{Object: NamedObject("fuzz"), Level: 1, Coeff: []byte{1, 0, 2}, Payload: []byte{9}}
	keyedSparse := &CodedBlock{Object: NamedObject("fuzz"), Level: 2, SpCoeff: SparsifyCoeff([]byte{0, 7, 0, 0, 0, 0, 0, 9}), Payload: []byte{4}}
	seeded := testEncoder(f, PLC, []int{16, 48}, 4)
	keyedSeed, err := seeded.Encode(rand.New(rand.NewSource(3)), 1)
	if err != nil {
		f.Fatal(err)
	}
	keyedSeed.Object = NamedObject("fuzz")
	zeroSeed, err := seeded.Encode(rand.New(rand.NewSource(4)), 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seedFrame(NamedObject("fuzz"), maxSeedCoeffLen, 1, coeffKindSeed, 0, maxSeedCoeffLen, 5))
	for _, sb := range []*CodedBlock{sparsePairs, sparseSpan, keyedDense, keyedSparse, keyedSeed, zeroSeed} {
		sdata, err := sb.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sdata)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		orig := append([]byte(nil), in...)
		var b, a CodedBlock
		err := b.UnmarshalBinary(in)
		if aerr := a.UnmarshalBinaryAlias(in); (err == nil) != (aerr == nil) {
			t.Fatalf("copying unmarshal: %v, aliasing unmarshal: %v", err, aerr)
		}
		obj, level, cerr := CheckWire(in)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("unmarshal: %v, CheckWire: %v", err, cerr)
		}
		if err != nil {
			return
		}
		if obj != b.Object || level != b.Level {
			t.Fatalf("CheckWire names %v level %d, unmarshal %v level %d", obj, level, b.Object, b.Level)
		}
		// A span-mode nonzero reads one byte and builds five (index and
		// value); only a seed frame builds more, at most maxSeedCoeffLen
		// coefficients.
		built := len(b.Coeff) + len(b.Payload)
		if b.SpCoeff != nil {
			built += 5 * b.SpCoeff.NNZ()
		}
		if built > 5*len(in)+maxSeedCoeffLen {
			t.Fatalf("a %d-byte frame built %d bytes of block", len(in), built)
		}
		for name, blk := range map[string]*CodedBlock{"copy": &b, "alias": &a} {
			out, err := blk.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: accepted block failed to re-marshal: %v", name, err)
			}
			if !bytes.Equal(out, orig) {
				t.Fatalf("%s: re-marshal differs:\n in=%x\nout=%x", name, orig, out)
			}
		}
		a.Coeff = append(a.Coeff, 0xEE)
		a.Payload = append(a.Payload, 0xEE)
		if a.SpCoeff != nil {
			a.SpCoeff.Val = append(a.SpCoeff.Val, 0xEE)
		}
		if !bytes.Equal(in, orig) {
			t.Fatalf("aliasing unmarshal let an append write into its input:\n in=%x\nnow=%x", orig, in)
		}
	})
}

// TestCodedBlockBinaryMarshaler pins the standard-serialization contract
// on the exported type.
func TestCodedBlockBinaryMarshaler(t *testing.T) {
	var b CodedBlock
	var _ encoding.BinaryMarshaler = &b
	var _ encoding.BinaryUnmarshaler = &b
	if err := b.UnmarshalBinary([]byte("garbage")); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("err = %v, want errors.Is ErrWireFormat", err)
	}
	src := &CodedBlock{Level: 1, Coeff: []byte{0, 2, 3}, Payload: []byte{7}}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back CodedBlock
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Level != 1 || string(back.Coeff) != string(src.Coeff) || string(back.Payload) != string(src.Payload) {
		t.Fatalf("round trip drifted: %+v", back)
	}
}
