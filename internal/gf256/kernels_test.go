package gf256

import (
	"bytes"
	"crypto/subtle"
	"math/rand"
	"testing"
)

// TestNibTables checks the split-nibble factorization against Mul for every
// coefficient and every byte value.
func TestNibTables(t *testing.T) {
	for c := 0; c < 256; c++ {
		tab := nibblesFor(byte(c))
		for x := 0; x < 256; x++ {
			want := Mul(byte(c), byte(x))
			if got := tab.mulByte(byte(x)); got != want {
				t.Fatalf("nibTables(%#02x).mulByte(%#02x) = %#02x, want %#02x", c, x, got, want)
			}
		}
	}
}

// forEachKernel runs f once per tier this CPU has — not only the one
// dispatch picked — with AddMulSlice and MulSlice switched to it.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			prev := active
			active = k
			defer func() { active = prev }()
			f(t)
		})
	}
}

// TestKernelList pins what dispatch relies on: the list is never empty, it
// ends with the portable tier, and Kernel names its first entry.
func TestKernelList(t *testing.T) {
	if len(kernels) == 0 || kernels[len(kernels)-1].name != "word" {
		t.Fatalf("kernels = %v, want a list ending in the word tier", kernelNames())
	}
	if Kernel() != kernels[0].name {
		t.Fatalf("Kernel() = %q, want the first available tier of %v", Kernel(), kernelNames())
	}
	t.Logf("kernels available: %v, active: %s", kernelNames(), Kernel())
}

func kernelNames() []string {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	return names
}

// TestEveryKernelMatchesRef checks every tier against the scalar reference
// for all 256 coefficients × every length 0…321 × every start offset
// within a 64-byte block, for AddMulSlice, MulSlice and MulSlice in place.
// dst sits between guard bytes that must come back untouched: a masked
// tail must not write past n, nor a bulk loop before the start. The
// expected bytes are MulSliceRef's products, XORed in by crypto/subtle.
//
// Under the race detector every byte the pure-Go loops touch is
// instrumented and the full sweep takes minutes; nothing here is
// concurrent, so that build thins coefficients and offsets.
func TestEveryKernelMatchesRef(t *testing.T) {
	const maxLen, offsets, guard = 321, 64, 64
	cStep, offStep := 1, 1
	if raceEnabled {
		cStep, offStep = 15, 9
	}
	rng := rand.New(rand.NewSource(46))
	src := make([]byte, offsets+maxLen)
	rng.Read(src)
	template := make([]byte, guard+offsets+maxLen+guard)
	rng.Read(template)
	prod := make([]byte, len(src))

	forEachKernel(t, func(t *testing.T) {
		got := append([]byte(nil), template...)
		want := append([]byte(nil), template...)
		for c := 0; c < 256; c += cStep {
			MulSliceRef(prod, src, byte(c))
			for n := 0; n <= maxLen; n++ {
				for off := 0; off < offsets; off += offStep {
					so := offsets - 1 - off // src and dst alignments differ
					lo, hi := guard+off, guard+off+n
					s, p := src[so:so+n], prod[so:so+n]

					AddMulSlice(got[lo:hi], s, byte(c))
					subtle.XORBytes(want[lo:hi], want[lo:hi], p)
					if !bytes.Equal(got, want) {
						t.Fatalf("AddMulSlice(c=%#02x, n=%d, offset=%d) diverges from reference", c, n, off)
					}

					MulSlice(got[lo:hi], s, byte(c))
					copy(want[lo:hi], p)
					if !bytes.Equal(got, want) {
						t.Fatalf("MulSlice(c=%#02x, n=%d, offset=%d) diverges from reference", c, n, off)
					}

					copy(got[lo:hi], s)
					MulSlice(got[lo:hi], got[lo:hi], byte(c))
					if !bytes.Equal(got, want) {
						t.Fatalf("aliased MulSlice(c=%#02x, n=%d, offset=%d) diverges from reference", c, n, off)
					}

					copy(got[lo:hi], template[lo:hi])
					copy(want[lo:hi], template[lo:hi])
				}
			}
		}
	})
}

// TestAddMulSliceMatchesGeneric drives the dispatching AddMulSlice across
// lengths that exercise the SIMD bulk loops, their tails (masked, word and
// byte) and the short-slice generic path, and cross-checks every byte
// against the scalar reference.
func TestAddMulSliceMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 1000, 1024, 4097}
	coeffs := []byte{0, 1, 2, 3, 0x1d, 0x80, 0xff}
	for _, n := range lengths {
		for _, c := range coeffs {
			src := make([]byte, n)
			rng.Read(src)
			dst := make([]byte, n)
			rng.Read(dst)
			want := append([]byte(nil), dst...)

			AddMulSlice(dst, src, c)
			AddMulSliceRef(want, src, c)
			if !bytes.Equal(dst, want) {
				t.Fatalf("AddMulSlice(n=%d, c=%#02x) diverges from reference", n, c)
			}
		}
	}
}

// TestMulSliceMatchesGeneric is the MulSlice counterpart, including exact
// aliasing (dst == src), which ScaleInPlace relies on.
func TestMulSliceMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	lengths := []int{0, 1, 7, 8, 15, 16, 17, 31, 32, 33, 64, 100, 1024}
	coeffs := []byte{0, 1, 2, 0x53, 0xff}
	for _, n := range lengths {
		for _, c := range coeffs {
			src := make([]byte, n)
			rng.Read(src)
			dst := make([]byte, n)
			want := make([]byte, n)

			MulSlice(dst, src, c)
			MulSliceRef(want, src, c)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulSlice(n=%d, c=%#02x) diverges from reference", n, c)
			}

			// Aliased: scale src in place and compare.
			aliased := append([]byte(nil), src...)
			MulSlice(aliased, aliased, c)
			if !bytes.Equal(aliased, want) {
				t.Fatalf("aliased MulSlice(n=%d, c=%#02x) diverges from reference", n, c)
			}
		}
	}
}

// TestAddMulSliceUnaligned slides a window across a larger buffer so every
// kernel sees every start alignment within a 64-byte SIMD block.
func TestAddMulSliceUnaligned(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		buf := make([]byte, 1024)
		rng.Read(buf)
		for off := 0; off < 64; off++ {
			for _, n := range []int{33, 64, 95, 257, 700} {
				src := buf[off : off+n]
				dst := make([]byte, n)
				rng.Read(dst)
				want := append([]byte(nil), dst...)
				AddMulSlice(dst, src, 0xa7)
				AddMulSliceRef(want, src, 0xa7)
				if !bytes.Equal(dst, want) {
					t.Fatalf("AddMulSlice(offset=%d, n=%d) diverges from reference", off, n)
				}
			}
		}
	})
}

// TestAddMulSliceDistributes checks the algebra end to end on the fast
// path: (a+b)·x == a·x + b·x accumulated into the same destination.
func TestAddMulSliceDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	src := make([]byte, 1024)
	rng.Read(src)
	for _, pair := range [][2]byte{{3, 5}, {0x80, 0x80}, {0xfe, 1}} {
		a, b := pair[0], pair[1]
		one := make([]byte, len(src))
		AddMulSlice(one, src, a^b) // (a+b)·x
		two := make([]byte, len(src))
		AddMulSlice(two, src, a)
		AddMulSlice(two, src, b)
		if !bytes.Equal(one, two) {
			t.Fatalf("(a+b)·x != a·x + b·x for a=%#02x b=%#02x", a, b)
		}
	}
}

func TestPowNegativeExponents(t *testing.T) {
	cases := []struct {
		a    byte
		e    int
		want func(a byte) byte
	}{
		{a: 1, e: -1, want: func(byte) byte { return 1 }},
		{a: 1, e: -1000, want: func(byte) byte { return 1 }},
	}
	for _, tc := range cases {
		if got := Pow(tc.a, tc.e); got != tc.want(tc.a) {
			t.Errorf("Pow(%#02x, %d) = %#02x, want %#02x", tc.a, tc.e, got, tc.want(tc.a))
		}
	}

	// Pow(a, -1) must equal Inv(a) for every nonzero a — the case the old
	// negative-intermediate fixup got wrong whenever |log(a)·e| >= 255.
	for a := 1; a < 256; a++ {
		inv, err := Inv(byte(a))
		if err != nil {
			t.Fatalf("Inv(%#02x): %v", a, err)
		}
		if got := Pow(byte(a), -1); got != inv {
			t.Errorf("Pow(%#02x, -1) = %#02x, want Inv = %#02x", a, got, inv)
		}
	}

	// Pow(a, -e) must be the inverse of Pow(a, e) for a sweep of exponents,
	// including ones far outside [-255, 255].
	for _, a := range []byte{2, 3, 0x1d, 0x80, 0xff} {
		for _, e := range []int{1, 2, 7, 254, 255, 256, 1000, 100000} {
			p, q := Pow(a, e), Pow(a, -e)
			if got := Mul(p, q); got != 1 {
				t.Errorf("Pow(%#02x, %d) * Pow(%#02x, -%d) = %#02x, want 1", a, e, a, e, got)
			}
		}
	}

	// Table-driven spot checks: Pow(a, e) == repeated multiplication.
	for _, a := range []byte{2, 0x35, 0xc1} {
		acc := byte(1)
		for e := 1; e <= 520; e++ {
			acc = Mul(acc, a)
			if got := Pow(a, e); got != acc {
				t.Fatalf("Pow(%#02x, %d) = %#02x, want %#02x", a, e, got, acc)
			}
			if gotNeg := Pow(a, -e); Mul(gotNeg, acc) != 1 {
				t.Fatalf("Pow(%#02x, -%d) is not the inverse of Pow(%#02x, %d)", a, e, a, e)
			}
		}
	}
}
