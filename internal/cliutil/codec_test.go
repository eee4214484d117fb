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
// is scheduled must not. The dense and band hashes were re-recorded when
// dense coefficients became the expansion of one per-block seed shipped in
// v5 frames (a band as wide as its level's support is drawn dense).
func TestEncodeFileGolden(t *testing.T) {
	data := make([]byte, 6000)
	rand.New(rand.NewSource(3)).Read(data)
	path := filepath.Join(t.TempDir(), "in.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scheme, coding string
		seed           int64
		want           string
	}{
		{"plc", "dense", 1, "48a37515c4f4c451143de9c6a317bc8d3cbe0f7bee26c746e0144955723b24ff"},
		{"plc", "dense", 7, "1ab2a86ad8a004c51eda900feb4c51e8569943735143757e86eb47c5b7c4d2d8"},
		{"slc", "dense", 1, "be85a089b57526423c51a8dc985c204da2f4b84d50227619caa82b9c711a839d"},
		{"rlc", "dense", 1, "eb19dd47b7d965d47ad2861166ba89fa5a56450b132faeb7665aa57f45d9e97e"},
		{"plc", "sparse", 1, "e0cfd1f2d8141c23e76fd71e3a10fa70da54cf15d861fe49f2ce333efe3f2908"},
		{"plc", "sparse", 7, "3705cd90a9040048a0503d2554dfffc3b36b0f755cc784e61b862db213fa1f14"},
		{"plc", "band", 1, "6b3e6624078df24decd0ae0d14a9de26285596d68bbefaf6ad6d13d6ce10b1d7"},
		{"plc", "band", 7, "b524f4754adb5d6b6fb92cf89f4a0b9c4af88c5c16b75af52a0f2502203e2956"},
		{"plc", "chunked", 1, "06cbe2e2afede35eb86b3e5877c24b4e9221810ed8141c3f8be8de48bc0b1368"},
		{"plc", "chunked", 7, "8d64d8b96725ba3c54346643e9a0d6090ce1c1e7a01a9bf4599ca7f500cd184f"},
	} {
		f := EncodeFlags{Blocks: 300, Coded: 400, Levels: "0.1,0.2,0.7", Dist: "0.2,0.3,0.5",
			Scheme: tc.scheme, Coding: tc.coding, Seed: tc.seed}
		_, blocks, err := f.EncodeFile(path)
		if err != nil {
			t.Fatalf("%s/%s seed %d: %v", tc.scheme, tc.coding, tc.seed, err)
		}
		if len(blocks) != f.Coded {
			t.Fatalf("%s/%s seed %d: %d blocks, want %d", tc.scheme, tc.coding, tc.seed, len(blocks), f.Coded)
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
			t.Errorf("%s/%s seed %d: blocks hash %s, want %s", tc.scheme, tc.coding, tc.seed, got, tc.want)
		}
	}
}
