package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
)

// FuzzReadBlock hardens the block-file parser: arbitrary bytes must never
// panic, any input that parses must describe exactly the source blocks
// its block codes, and must re-serialize to an equivalent block.
func FuzzReadBlock(f *testing.F) {
	// Seed with a valid block file and a few mutations.
	dir := f.TempDir()
	h := cliutil.Geometry{Scheme: core.PLC, LevelSizes: []int{2, 3}, FileSize: 123, PayloadLen: 4}
	b := &core.CodedBlock{Level: 1, Coeff: []byte{0, 0, 1, 2, 3}, Payload: []byte{9, 8, 7, 6}}
	seed := filepath.Join(dir, "seed.prlc")
	if err := writeBlock(seed, h, b); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte("PRLC"))
	f.Add([]byte("PRLC\x02\x03\x00\x02"))
	f.Add([]byte("PRLC\x01\x03\x00\x02")) // old v1 header: must be rejected, not parsed
	f.Add([]byte{})
	f.Add(mismatchedHeaderFile(f)) // header claims 0xFFFFFFF0 sources: must be rejected

	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.prlc")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Skip()
		}
		hdr, blk, err := readBlock(path)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if hdr.Total() != blk.CoeffLen() {
			t.Fatalf("accepted a header of %d source blocks for a block coding %d", hdr.Total(), blk.CoeffLen())
		}
		// Accepted inputs must survive a write/read round trip.
		out := filepath.Join(t.TempDir(), "rt.prlc")
		if err := writeBlock(out, hdr, blk); err != nil {
			t.Fatalf("round-trip write failed: %v", err)
		}
		hdr2, blk2, err := readBlock(out)
		if err != nil {
			t.Fatalf("round-trip read failed: %v", err)
		}
		if !reflect.DeepEqual(hdr, hdr2) {
			t.Fatalf("headers drifted: %+v vs %+v", hdr, hdr2)
		}
		if blk2.Level != blk.Level || !bytes.Equal(blk2.Coeff, blk.Coeff) ||
			!bytes.Equal(blk2.Payload, blk.Payload) {
			t.Fatal("block drifted through round trip")
		}
	})
}
