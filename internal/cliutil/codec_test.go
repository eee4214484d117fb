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
// is scheduled must not.
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
		{"plc", "dense", 1, "643c156b1d00e34359512f3ef16a791bb7c9c162791717b44d852db99b829c0f"},
		{"plc", "dense", 7, "10a8a80a7c18e4ea9c236b141d021618d123b410579af20a85add4a0d828263d"},
		{"slc", "dense", 1, "efb532e6210d10d1db11b230d0f1a7cbc672c2a4bda120cb9a6f86c9a6cd9cc4"},
		{"rlc", "dense", 1, "4c4f3a31d992ffa8d635ea8ddfc18487c8aaf4f59811505ef92e86c9777484e7"},
		{"plc", "sparse", 1, "e0cfd1f2d8141c23e76fd71e3a10fa70da54cf15d861fe49f2ce333efe3f2908"},
		{"plc", "sparse", 7, "3705cd90a9040048a0503d2554dfffc3b36b0f755cc784e61b862db213fa1f14"},
		{"plc", "band", 1, "1156db1df34f732bf6996be1a7c041d4c647b85885748d8d0ee18d8088784237"},
		{"plc", "band", 7, "a0dfb578fd125a01340f1fb86937c9997bdc9ff51aed13c30da08be3492ebc07"},
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
