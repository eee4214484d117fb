package gf256_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gf256"
)

// TestPipelineIdenticalAcrossKernels is the kernel equivalence one level
// up: one PLC object (N=64 × 1 KiB, 4 levels), dense and sparse, encoded
// and fully decoded under every kernel tier this CPU has. The coded blocks
// on the wire and the decoded sources must be byte-identical across tiers
// (and the sources equal to the input). It lives here rather than in core
// because only this package's tests can switch the kernel.
func TestPipelineIdenticalAcrossKernels(t *testing.T) {
	const n, payloadLen = 64, 1024
	levels, err := core.UniformLevels(4, n/4)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]byte, n)
	rng := rand.New(rand.NewSource(47))
	for i := range sources {
		sources[i] = make([]byte, payloadLen)
		rng.Read(sources[i])
	}

	for _, tc := range []struct {
		name string
		opts []core.EncoderOption
	}{
		{"dense", nil},
		{"sparse", []core.EncoderOption{core.WithSparsity(core.LogSparsity(n))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var refKernel string
			var refWire, refDecoded []byte
			gf256.ForEachKernel(t, func(t *testing.T) {
				wire, decoded := encodeDecode(t, levels, sources, tc.opts)
				if !bytes.Equal(decoded, bytes.Join(sources, nil)) {
					t.Fatalf("decoded sources differ from the input")
				}
				if refKernel == "" {
					refKernel, refWire, refDecoded = gf256.Kernel(), wire, decoded
					return
				}
				if !bytes.Equal(wire, refWire) {
					t.Errorf("coded blocks differ from those of the %s kernel", refKernel)
				}
				if !bytes.Equal(decoded, refDecoded) {
					t.Errorf("decoded sources differ from those of the %s kernel", refKernel)
				}
			})
		})
	}
}

// encodeDecode encodes blocks from a fixed seed, level by level in rotation,
// until a decoder fed every one of them is complete, and returns the
// concatenated wire bytes of the blocks and the concatenated decoded sources.
func encodeDecode(t *testing.T, levels *core.Levels, sources [][]byte, opts []core.EncoderOption) (wire, decoded []byte) {
	t.Helper()
	enc, err := core.NewEncoder(core.PLC, levels, sources, opts...)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewDecoder(core.PLC, levels, enc.PayloadLen())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(48))
	for i := 0; !dec.Complete(); i++ {
		if i == 8*levels.Total() {
			t.Fatalf("not decoded after %d blocks (rank %d of %d)", i, dec.Rank(), levels.Total())
		}
		b, err := enc.Encode(rng, i%levels.Count())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, raw...)
		if _, err := dec.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	return wire, bytes.Join(dec.Sources(), nil)
}
