package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/gf256"
)

func testSources(t testing.TB, n, payloadLen int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, payloadLen)
		rng.Read(out[i])
	}
	return out
}

func testEncoder(t testing.TB, scheme Scheme, sizes []int, payloadLen int, opts ...EncoderOption) *Encoder {
	t.Helper()
	levels, err := NewLevels(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	var sources [][]byte
	if payloadLen > 0 {
		sources = testSources(t, levels.Total(), payloadLen, 99)
	}
	enc, err := NewEncoder(scheme, levels, sources, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// setProcs sets GOMAXPROCS to n until the test ends: EncodeSeeded and the
// striped decode folds take their fan-out from it.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelEncodeBatchDeterministic pins the headline guarantee: for a
// fixed seed EncodeSeeded's batch is bit-identical whatever GOMAXPROCS.
func TestParallelEncodeBatchDeterministic(t *testing.T) {
	for _, scheme := range []Scheme{RLC, SLC, PLC} {
		enc := testEncoder(t, scheme, []int{4, 8, 12}, 256)
		p := NewUniformDistribution(3)
		var want []*CodedBlock
		for _, procs := range []int{1, 2, 3, 4, 7} {
			setProcs(t, procs)
			got, err := enc.EncodeSeeded(12345, p, 40)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: EncodeSeeded at GOMAXPROCS %d differs from GOMAXPROCS 1", scheme, procs)
			}
		}
	}
}

// TestParallelEncodeBatchSparseDeterministic repeats the determinism check
// with the sparse O(ln N) coefficient variant, whose per-block random
// consumption is irregular (Perm + Intn).
func TestParallelEncodeBatchSparseDeterministic(t *testing.T) {
	enc := testEncoder(t, PLC, []int{8, 8, 16}, 128, WithSparsity(LogSparsity(32)))
	p := NewUniformDistribution(3)
	setProcs(t, 1)
	a, err := enc.EncodeSeeded(777, p, 64)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 4)
	b, err := enc.EncodeSeeded(777, p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sparse EncodeSeeded differs across GOMAXPROCS")
	}
}

// TestParallelEncodeMatchesSequential pins EncodeSeeded's algorithm: the
// seed's stream yields each block's level and then its private seed. A
// dense block's coefficients are that seed's expansion over the level's
// support and its payload their fold; a sparse block is Encode from a
// generator on that seed. Replaying the prologue by hand on one goroutine
// must give the same batch.
func TestParallelEncodeMatchesSequential(t *testing.T) {
	setProcs(t, 4)
	for _, opts := range [][]EncoderOption{nil, {WithSparsity(3)}} {
		enc := testEncoder(t, PLC, []int{2, 6, 8}, 96, opts...)
		p := PriorityDistribution{0.2, 0.3, 0.5}
		const seed, count = 5, 48
		got, err := enc.EncodeSeeded(seed, p, count)
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := dist.NewCategorical(p)
		if err != nil {
			t.Fatal(err)
		}
		parent := rand.New(rand.NewSource(seed))
		for i := range count {
			level := sampler.Draw(parent)
			private := parent.Int63()
			lo, hi, err := PLC.Support(enc.Levels(), level)
			if err != nil {
				t.Fatal(err)
			}
			var want *CodedBlock
			if enc.sparseOver(hi - lo) {
				if want, err = enc.Encode(rand.New(rand.NewSource(private)), level); err != nil {
					t.Fatal(err)
				}
			} else {
				coeff := make([]byte, enc.Levels().Total())
				expandSeed(coeff[lo:hi], uint64(private))
				payload := make([]byte, enc.PayloadLen())
				for j := lo; j < hi; j++ {
					gf256.AddMulSliceRef(payload, enc.sources[j], coeff[j])
				}
				want = &CodedBlock{Level: level, Coeff: coeff, Payload: payload, seed: uint64(private), seeded: true}
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("block %d differs from the sequential replay", i)
			}
		}
	}
}

// TestParallelEncodeBatchDecodes runs the full loop: blocks encoded on
// several workers must decode back to the sources.
func TestParallelEncodeBatchDecodes(t *testing.T) {
	setProcs(t, 4)
	enc := testEncoder(t, PLC, []int{4, 6, 6}, 64)
	blocks, err := enc.EncodeSeeded(31337, NewUniformDistribution(3), 80)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(PLC, enc.Levels(), enc.PayloadLen())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := dec.Add(b); err != nil {
			t.Fatal(err)
		}
		if dec.Complete() {
			break
		}
	}
	if !dec.Complete() {
		t.Fatalf("decoder incomplete: rank %d/%d after %d blocks", dec.Rank(), enc.Levels().Total(), len(blocks))
	}
	for i := 0; i < enc.Levels().Total(); i++ {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, enc.sources[i]) {
			t.Fatalf("source %d decoded incorrectly", i)
		}
	}
}

// TestEncodeSeededCoefficientOnly covers payloadLen == 0 (Monte-Carlo
// mode): batches still generate and stay deterministic, and an empty batch
// or a bad request behaves like EncodeBatch's.
func TestEncodeSeededCoefficientOnly(t *testing.T) {
	levels, err := NewLevels(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(SLC, levels, nil)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 3)
	a, err := enc.EncodeSeeded(1, NewUniformDistribution(2), 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := enc.EncodeSeeded(1, NewUniformDistribution(2), 30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("coefficient-only EncodeSeeded not reproducible")
	}
	for _, blk := range a {
		if blk.Payload == nil || len(blk.Payload) != 0 {
			t.Fatal("coefficient-only block should carry empty non-nil payload")
		}
	}
	if out, err := enc.EncodeSeeded(1, NewUniformDistribution(2), 0); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %d blocks, %v", len(out), err)
	}
	if _, err := enc.EncodeSeeded(1, NewUniformDistribution(2), -1); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := enc.EncodeSeeded(1, PriorityDistribution{1}, 10); err == nil {
		t.Error("distribution of the wrong length accepted")
	}
}

// TestCodedBlockCloneEmptiness pins the satellite fix: Clone must preserve
// nil-ness and emptiness instead of collapsing empty slices to nil.
func TestCodedBlockCloneEmptiness(t *testing.T) {
	empty := &CodedBlock{Level: 1, Coeff: []byte{}, Payload: []byte{}}
	c := empty.Clone()
	if c.Coeff == nil || c.Payload == nil {
		t.Fatal("Clone turned empty non-nil slices into nil")
	}
	if !reflect.DeepEqual(empty, c) {
		t.Fatal("Clone of empty-slice block is not DeepEqual to the original")
	}

	nilBlock := &CodedBlock{Level: 2}
	c = nilBlock.Clone()
	if c.Coeff != nil || c.Payload != nil {
		t.Fatal("Clone materialized nil slices")
	}
	if !reflect.DeepEqual(nilBlock, c) {
		t.Fatal("Clone of nil-slice block is not DeepEqual to the original")
	}

	full := &CodedBlock{Level: 0, Coeff: []byte{1, 2}, Payload: []byte{3}}
	c = full.Clone()
	if !reflect.DeepEqual(full, c) {
		t.Fatal("Clone of populated block is not DeepEqual")
	}
	c.Coeff[0] = 9
	c.Payload[0] = 9
	if full.Coeff[0] == 9 || full.Payload[0] == 9 {
		t.Fatal("Clone aliases the original's storage")
	}
}
