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
// per-block seed shipped in v5 frames, and again when that seed became
// the block's private seed from EncodeSeeded's prologue itself, with no
// math/rand source seeded per dense block (ROADMAP item 15(a)).
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
		{200, 400, "plc", 1, "907cee08342ea92a537840580291686111815be22df762bf3b1546d88276a73b"},
		{200, 400, "plc", 7, "3701fbaeb41a096e23ba669ab1f57832cce76031c22e7c983e8744266114bcb8"},
		{200, 400, "slc", 1, "7bed58efc12b80345bb75230c07ff79383f412503f6c61647429b80c201a2ad8"},
		{200, 400, "rlc", 1, "5d1598ad38aa3aae0961e28e869828d8717758bcd8794fd47ab46290dd83e68b"},
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
