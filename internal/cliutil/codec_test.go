package cliutil

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestEncodeFileGolden pins the blocks prlcfile encode and prlcd store put
// write: the SHA-256 of every marshaled block, in order, for fixed flags.
// A change to the coefficient draw, the level sampling, the per-block
// seeding or the wire format shows up here first; a change to how the work
// is scheduled must not. The block count picks the coding (core.AutoCoding):
// dense at 200, sparse at 300, chunked at 1100. The dense hashes were
// re-recorded when dense coefficients became the expansion of one
// per-block seed shipped in v5 frames.
func TestEncodeFileGolden(t *testing.T) {
	data := make([]byte, 6000)
	rand.New(rand.NewSource(3)).Read(data)
	path := filepath.Join(t.TempDir(), "in.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		blocks, coded int
		scheme        string
		seed          int64
		want          string
	}{
		{200, 400, "plc", 1, "43b56cc4f98bbe1c6c9d0a6c69fee6a3716306599b0adb183c65aaad67196ce5"},
		{200, 400, "plc", 7, "5fa16d4e31c1abce023b3fed6ff5a82447ef86c1c2aa5404a3fa1858327ff8f7"},
		{200, 400, "slc", 1, "bfb0bc5a29d79a6c4539c35b0a65cff08fdd0ebd4fb0b451e575a5d962586f12"},
		{200, 400, "rlc", 1, "5318ccf0e74e3c5e12adae17994bf75e5895b9a749f73b793bceeb597c7b8ae7"},
		{300, 400, "plc", 1, "e0cfd1f2d8141c23e76fd71e3a10fa70da54cf15d861fe49f2ce333efe3f2908"},
		{300, 400, "plc", 7, "3705cd90a9040048a0503d2554dfffc3b36b0f755cc784e61b862db213fa1f14"},
		{1100, 1400, "plc", 1, "52cc4360f69f6313103c66701fe60b3fc698a0d68a4e721837155750eebd68a7"},
		{1100, 1400, "plc", 7, "86466e107a57c4d89ba41dc41ed964a541d0fdbd6cffdbf8c2f2bf9ad5937a4b"},
	} {
		f := EncodeFlags{Blocks: tc.blocks, Coded: tc.coded, Levels: "0.1,0.2,0.7", Dist: "0.2,0.3,0.5",
			Scheme: tc.scheme, Seed: tc.seed}
		_, blocks, err := f.EncodeFile(path)
		if err != nil {
			t.Fatalf("%s/%d seed %d: %v", tc.scheme, tc.blocks, tc.seed, err)
		}
		if len(blocks) != f.Coded {
			t.Fatalf("%s/%d seed %d: %d blocks, want %d", tc.scheme, tc.blocks, tc.seed, len(blocks), f.Coded)
		}
		h := sha256.New()
		for _, b := range blocks {
			raw, err := b.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(raw)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s/%d seed %d: blocks hash %s, want %s", tc.scheme, tc.blocks, tc.seed, got, tc.want)
		}
	}
}
