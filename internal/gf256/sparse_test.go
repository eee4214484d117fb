package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestAddMulAtMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		dense := make([]byte, n)
		var idx []uint32
		var val []byte
		for j := 0; j < n; j++ {
			if rng.Intn(4) == 0 {
				v := byte(1 + rng.Intn(255))
				dense[j] = v
				idx = append(idx, uint32(j))
				val = append(val, v)
			}
		}
		c := byte(rng.Intn(256))
		want := make([]byte, n)
		rng.Read(want)
		got := append([]byte(nil), want...)
		AddMulSlice(want, dense, c)
		AddMulAt(got, idx, val, c)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (n=%d c=%d): scatter disagrees with dense", trial, n, c)
		}
	}
}

func TestAddMulAtLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	AddMulAt(make([]byte, 4), []uint32{0, 1}, []byte{1}, 2)
}

func TestScatterAt(t *testing.T) {
	dst := make([]byte, 6)
	ScatterAt(dst, []uint32{1, 4}, []byte{7, 9})
	if !bytes.Equal(dst, []byte{0, 7, 0, 0, 9, 0}) {
		t.Fatalf("scatter result %v", dst)
	}
}

func TestNextNonzero(t *testing.T) {
	v := make([]byte, 100)
	v[37] = 1
	v[99] = 2
	cases := []struct{ from, want int }{
		{0, 37}, {37, 37}, {38, 99}, {99, 99}, {100, 100}, {-3, 37},
	}
	for _, c := range cases {
		if got := NextNonzero(v, c.from); got != c.want {
			t.Errorf("NextNonzero(from=%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := NextNonzero(nil, 0); got != 0 {
		t.Errorf("NextNonzero(nil) = %d", got)
	}
	zeros := make([]byte, 33)
	if got := NextNonzero(zeros, 0); got != 33 {
		t.Errorf("NextNonzero(all-zero) = %d, want 33", got)
	}
}

func TestNextNonzeroExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		v := make([]byte, n)
		for j := range v {
			if rng.Intn(3) == 0 {
				v[j] = byte(1 + rng.Intn(255))
			}
		}
		for from := 0; from <= n; from++ {
			want := n
			for j := from; j < n; j++ {
				if v[j] != 0 {
					want = j
					break
				}
			}
			if got := NextNonzero(v, from); got != want {
				t.Fatalf("trial %d: NextNonzero(%v, %d) = %d, want %d", trial, v, from, got, want)
			}
			want = from - 1
			for j := n - 1; j >= from; j-- {
				if v[j] != 0 {
					want = j
					break
				}
			}
			if got := LastNonzero(v, from); got != want {
				t.Fatalf("trial %d: LastNonzero(%v, %d) = %d, want %d", trial, v, from, got, want)
			}
		}
	}
}

func TestLastNonzero(t *testing.T) {
	v := make([]byte, 100)
	v[0] = 3
	v[37] = 1
	v[64] = 2
	cases := []struct{ from, want int }{
		{0, 64}, {37, 64}, {64, 64}, {65, 64}, {-3, 64}, {100, 99},
	}
	for _, c := range cases {
		if got := LastNonzero(v, c.from); got != c.want {
			t.Errorf("LastNonzero(from=%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := LastNonzero(v[:64], 1); got != 37 {
		t.Errorf("LastNonzero(v[:64], 1) = %d, want 37", got)
	}
	if got := LastNonzero(v[:37], 1); got != 0 {
		t.Errorf("LastNonzero(v[:37], 1) = %d, want 0 (from-1)", got)
	}
	if got := LastNonzero(nil, 0); got != -1 {
		t.Errorf("LastNonzero(nil) = %d, want -1", got)
	}
}

// TestCountNonzero checks the word-at-a-time count against a byte loop:
// every byte value at every position of a 17-byte vector (a word, a word
// and a tail), then random vectors of mixed zero runs.
func TestCountNonzero(t *testing.T) {
	count := func(v []byte) int {
		n := 0
		for _, x := range v {
			if x != 0 {
				n++
			}
		}
		return n
	}
	v := make([]byte, 17)
	for pos := range v {
		for b := 0; b < 256; b++ {
			v[pos] = byte(b)
			if got, want := CountNonzero(v), count(v); got != want {
				t.Fatalf("CountNonzero with %#02x at %d = %d, want %d", b, pos, got, want)
			}
		}
		v[pos] = 0
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		v := make([]byte, rng.Intn(70))
		for j := range v {
			if rng.Intn(3) == 0 {
				v[j] = byte(1 + rng.Intn(255))
			}
		}
		if got, want := CountNonzero(v), count(v); got != want {
			t.Fatalf("CountNonzero(%v) = %d, want %d", v, got, want)
		}
	}
}
