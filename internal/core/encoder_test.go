package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

func randomSources(rng *rand.Rand, n, payloadLen int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, payloadLen)
		rng.Read(out[i])
	}
	return out
}

func TestNewEncoderValidation(t *testing.T) {
	l := mustLevels(t, 2, 2)
	if _, err := NewEncoder(Scheme(0), l, nil); err == nil {
		t.Error("invalid scheme accepted")
	}
	if _, err := NewEncoder(PLC, nil, nil); err == nil {
		t.Error("nil levels accepted")
	}
	if _, err := NewEncoder(PLC, l, [][]byte{{1}}); err == nil {
		t.Error("wrong source count accepted")
	}
	if _, err := NewEncoder(PLC, l, [][]byte{{1}, {2}, {3}, {4, 5}}); err == nil {
		t.Error("ragged sources accepted")
	}
}

func TestEncoderCopiesSources(t *testing.T) {
	l := mustLevels(t, 1)
	src := [][]byte{{7}}
	e, err := NewEncoder(RLC, l, src)
	if err != nil {
		t.Fatal(err)
	}
	src[0][0] = 0
	rng := rand.New(rand.NewSource(1))
	b, err := e.Encode(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Payload must be coeff * 7, not coeff * 0.
	want := gf256.Mul(b.Coeff[0], 7)
	if b.Payload[0] != want {
		t.Errorf("payload %#02x, want %#02x (encoder aliased caller sources)", b.Payload[0], want)
	}
}

func TestEncodeSupportShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := mustLevels(t, 2, 3, 5)
	for _, scheme := range []Scheme{RLC, SLC, PLC} {
		e, err := NewEncoder(scheme, l, nil)
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level < l.Count(); level++ {
			lo, hi, err := scheme.Support(l, level)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				b, err := e.Encode(rng, level)
				if err != nil {
					t.Fatal(err)
				}
				if b.Level != level {
					t.Fatalf("%v: block level %d, want %d", scheme, b.Level, level)
				}
				for j, c := range b.Coeff {
					inSupport := j >= lo && j < hi
					if !inSupport && c != 0 {
						t.Fatalf("%v level %d: nonzero coeff outside support at %d", scheme, level, j)
					}
					if inSupport && c == 0 {
						t.Fatalf("%v level %d: dense encoding produced zero coeff at %d", scheme, level, j)
					}
				}
			}
		}
	}
}

func TestEncodePayloadMatchesLinearCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := mustLevels(t, 2, 3)
	sources := randomSources(rng, l.Total(), 16)
	for _, scheme := range []Scheme{RLC, SLC, PLC} {
		e, err := NewEncoder(scheme, l, sources)
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level < l.Count(); level++ {
			b, err := e.Encode(rng, level)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 16)
			for j, c := range b.Coeff {
				if c != 0 {
					gf256.AddMulSlice(want, sources[j], c)
				}
			}
			if !bytes.Equal(b.Payload, want) {
				t.Fatalf("%v level %d: payload mismatch", scheme, level)
			}
		}
	}
}

func TestEncodeInvalidLevel(t *testing.T) {
	l := mustLevels(t, 2)
	e, err := NewEncoder(PLC, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if _, err := e.Encode(rng, 1); err == nil {
		t.Error("Encode with out-of-range level succeeded, want error")
	}
	if _, err := e.Encode(rng, -1); err == nil {
		t.Error("Encode with negative level succeeded, want error")
	}
}

func TestSparseEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := mustLevels(t, 50, 50)
	const d = 8
	e, err := NewEncoder(PLC, l, nil, WithSparsity(d))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		b, err := e.Encode(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !b.IsSparse() {
			t.Fatal("sparse encoder emitted a dense block")
		}
		nnz := 0
		for _, c := range b.DenseCoeff() {
			if c != 0 {
				nnz++
			}
		}
		if nnz != d || b.SpCoeff.NNZ() != d {
			t.Fatalf("sparse block has %d nonzeros (%d entries), want %d", nnz, b.SpCoeff.NNZ(), d)
		}
	}
	// Sparsity wider than the support degrades to dense over the support.
	b, err := e.Encode(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	nnz := 0
	for _, c := range b.DenseCoeff()[:50] {
		if c != 0 {
			nnz++
		}
	}
	if nnz != d {
		t.Fatalf("level-0 sparse block has %d nonzeros, want %d", nnz, d)
	}
}

func TestSparsityWiderThanSupportIsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := mustLevels(t, 3)
	e, err := NewEncoder(RLC, l, nil, WithSparsity(100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Encode(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range b.Coeff {
		if c == 0 {
			t.Errorf("coeff[%d] = 0, want dense nonzero", j)
		}
	}
}

func TestLogSparsity(t *testing.T) {
	if got := LogSparsity(1); got != 1 {
		t.Errorf("LogSparsity(1) = %d, want 1", got)
	}
	if got := LogSparsity(0); got != 1 {
		t.Errorf("LogSparsity(0) = %d, want 1", got)
	}
	// 3·ln(1000) ≈ 20.7 → 21.
	if got := LogSparsity(1000); got != 21 {
		t.Errorf("LogSparsity(1000) = %d, want 21", got)
	}
}

func TestEncodeBatchLevelFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := mustLevels(t, 10, 10, 10)
	e, err := NewEncoder(SLC, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := PriorityDistribution{0.6, 0.3, 0.1}
	const m = 30000
	blocks, err := e.EncodeBatch(rng, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != m {
		t.Fatalf("batch size %d, want %d", len(blocks), m)
	}
	counts := make([]int, 3)
	for _, b := range blocks {
		counts[b.Level]++
	}
	for k, want := range p {
		got := float64(counts[k]) / m
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("level %d frequency %g, want %g±0.02", k, got, want)
		}
	}
}

func TestEncodeBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := mustLevels(t, 5, 5)
	e, err := NewEncoder(PLC, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EncodeBatch(rng, PriorityDistribution{1}, 10); err == nil {
		t.Error("wrong-length distribution accepted")
	}
	if _, err := e.EncodeBatch(rng, NewUniformDistribution(2), -1); err == nil {
		t.Error("negative count accepted")
	}
	out, err := e.EncodeBatch(rng, NewUniformDistribution(2), 0)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch = %v, %v", out, err)
	}
}

func TestCodedBlockClone(t *testing.T) {
	b := &CodedBlock{Level: 1, Coeff: []byte{1, 2}, Payload: []byte{3}}
	c := b.Clone()
	c.Coeff[0] = 9
	c.Payload[0] = 9
	if b.Coeff[0] != 1 || b.Payload[0] != 3 {
		t.Error("Clone aliases the original block")
	}
}

func TestEncoderAccessors(t *testing.T) {
	l := mustLevels(t, 2, 2)
	sources := randomSources(rand.New(rand.NewSource(9)), 4, 8)
	e, err := NewEncoder(SLC, l, sources)
	if err != nil {
		t.Fatal(err)
	}
	if e.Scheme() != SLC || e.Levels() != l || e.PayloadLen() != 8 {
		t.Errorf("accessors: %v %v %d", e.Scheme(), e.Levels(), e.PayloadLen())
	}
}

// TestFacadeSparsityHelpers pins the 3·ln(N) budget's use: a sparse
// encoder's block carries exactly LogSparsity(N) nonzero coefficients.
func TestFacadeSparsityHelpers(t *testing.T) {
	if LogSparsity(1000) < 2 {
		t.Error("LogSparsity(1000) suspiciously small")
	}
	levels, err := UniformLevels(2, 50)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(PLC, levels, nil, WithSparsity(LogSparsity(100)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b, err := enc.Encode(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsSparse() {
		t.Fatal("sparse encoder emitted a dense block")
	}
	nnz := 0
	for _, c := range b.DenseCoeff() {
		if c != 0 {
			nnz++
		}
	}
	if nnz != LogSparsity(100) {
		t.Errorf("sparse block has %d nonzeros, want %d", nnz, LogSparsity(100))
	}
}
