package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
)

func writeTempFile(t *testing.T, size int) string {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	path := filepath.Join(t.TempDir(), "input.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"encode"}); err == nil {
		t.Error("encode without -in/-out accepted")
	}
	if err := run([]string{"decode"}); err == nil {
		t.Error("decode without -in/-out accepted")
	}
}

func TestEncodeValidation(t *testing.T) {
	in := writeTempFile(t, 1000)
	out := t.TempDir()
	cases := [][]string{
		{"encode", "-in", filepath.Join(t.TempDir(), "missing"), "-out", out},
		{"encode", "-in", in, "-out", out, "-scheme", "xyz"},
		{"encode", "-in", in, "-out", out, "-blocks", "-5"},
		{"encode", "-in", in, "-out", out, "-blocks", "50", "-coded", "10"},
		{"encode", "-in", in, "-out", out, "-levels", "0.5,-0.1"},
		{"encode", "-in", in, "-out", out, "-levels", "abc"},
		{"encode", "-in", in, "-out", out, "-dist", "0.9,0.9,0.9"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("bad encode args %d accepted: %v", i, args)
		}
	}
}

// TestFractionsToSizes checks how encode turns -levels fractions into the
// level sizes its block files record: exact splits stay exact, tiny
// fractions round up to one block, and fractions no split can honour are
// refused.
func TestFractionsToSizes(t *testing.T) {
	in := writeTempFile(t, 1000)
	levelSizes := func(blocks, levels string) []int {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "blocks")
		if err := run([]string{"encode", "-in", in, "-out", dir, "-blocks", blocks, "-levels", levels}); err != nil {
			t.Fatal(err)
		}
		hs, _ := readBlockFiles(t, dir)
		return hs[0].LevelSizes
	}
	if got := levelSizes("100", "0.1,0.2,0.7"); !reflect.DeepEqual(got, []int{10, 20, 70}) {
		t.Errorf("-levels 0.1,0.2,0.7 of 100 blocks gave sizes %v, want [10 20 70]", got)
	}
	if got := levelSizes("10", "0.001,0.999"); got[0] != 1 || got[0]+got[1] != 10 {
		t.Errorf("tiny level fraction gave sizes %v, want [1 9]", got)
	}
	for _, c := range [][]string{
		{"-levels", ""},
		{"-levels", "0,1"},
		{"-blocks", "3", "-levels", "1,1,1,1"},
	} {
		args := append([]string{"encode", "-in", in, "-out", t.TempDir()}, c...)
		if err := run(args); err == nil {
			t.Errorf("encode %v accepted", c)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := writeTempFile(t, 7777) // deliberately not a multiple of the block count
	blocksDir := filepath.Join(t.TempDir(), "blocks")
	if err := run([]string{
		"encode", "-in", in, "-out", blocksDir,
		"-blocks", "40", "-coded", "70", "-levels", "0.2,0.8", "-dist", "0.2,0.8", "-scheme", "plc",
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(blocksDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 70 {
		t.Fatalf("wrote %d block files, want 70", len(entries))
	}

	outFile := filepath.Join(t.TempDir(), "out.bin")
	if err := run([]string{"decode", "-in", blocksDir, "-out", outFile}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("full decode mismatch: %d bytes vs %d", len(got), len(want))
	}
}

func TestDecodePartialPrefix(t *testing.T) {
	in := writeTempFile(t, 5000)
	blocksDir := filepath.Join(t.TempDir(), "blocks")
	if err := run([]string{
		"encode", "-in", in, "-out", blocksDir,
		"-blocks", "50", "-coded", "80", "-levels", "0.2,0.8",
		"-dist", "0.6,0.4", "-scheme", "plc",
	}); err != nil {
		t.Fatal(err)
	}
	// Destroy 60% of the block files.
	entries, err := os.ReadDir(blocksDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if i%5 != 0 && i%5 != 1 {
			if err := os.Remove(filepath.Join(blocksDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	outFile := filepath.Join(t.TempDir(), "out.bin")
	if err := run([]string{"decode", "-in", blocksDir, "-out", outFile}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever prefix was recovered must match the original byte for byte.
	if len(got) > len(want) {
		t.Fatalf("recovered %d bytes from a %d-byte file", len(got), len(want))
	}
	if !bytes.Equal(got, want[:len(got)]) {
		t.Fatal("recovered prefix differs from the original")
	}
}

func TestDecodeEmptyDir(t *testing.T) {
	if err := run([]string{"decode", "-in", t.TempDir(), "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("decode of empty directory succeeded")
	}
}

func TestDecodeSkipsCorruptFiles(t *testing.T) {
	in := writeTempFile(t, 2000)
	blocksDir := filepath.Join(t.TempDir(), "blocks")
	if err := run([]string{
		"encode", "-in", in, "-out", blocksDir, "-blocks", "20", "-coded", "80",
	}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one file, truncate another, add junk.
	if err := os.WriteFile(filepath.Join(blocksDir, "block_00000.prlc"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocksDir, "block_00001.prlc"), []byte("PRLC\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocksDir, "junk.prlc"), []byte("PRLC\x09"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed file of the same geometry but another object, read
	// right after the file that fixes the geometry: the decoder refuses it.
	g, b, err := readBlock(filepath.Join(blocksDir, "block_00003.prlc"))
	if err != nil {
		t.Fatal(err)
	}
	b.Object = core.NamedObject("another file")
	alien := filepath.Join(blocksDir, "block_00002x.prlc")
	if err := writeBlock(alien, g, b); err != nil {
		t.Fatal(err)
	}
	outFile := filepath.Join(t.TempDir(), "out.bin")
	stderr := captureStderr(t, func() {
		if err := run([]string{"decode", "-in", blocksDir, "-out", outFile}); err != nil {
			t.Fatal(err)
		}
	})
	for _, name := range []string{"block_00000.prlc", "block_00001.prlc", "block_00002x.prlc"} {
		if !strings.Contains(stderr, "prlcfile: skipping "+filepath.Join(blocksDir, name)+": ") {
			t.Errorf("no skip line for %s in:\n%s", name, stderr)
		}
	}
	if !strings.Contains(stderr, alien+": "+core.ErrObjectMismatch.Error()) {
		t.Errorf("the other object's file is not skipped as a decoder reject:\n%s", stderr)
	}
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("decode with corrupt files present lost data")
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer func(saved *os.File) { os.Stderr = saved }(os.Stderr)
	os.Stderr = w
	out := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		out <- buf.String()
	}()
	fn()
	w.Close()
	return <-out
}

func TestBlockFileRoundTrip(t *testing.T) {
	for _, g := range []cliutil.Geometry{
		{Scheme: core.PLC, LevelSizes: []int{2, 3}, FileSize: 999, PayloadLen: 4},
		{Scheme: core.PLC, LevelSizes: []int{2, 3}, FileSize: 999, PayloadLen: 4, ChunkSize: 3, ChunkOverlap: 1},
	} {
		b := &core.CodedBlock{Level: 1, Coeff: []byte{0, 0, 1, 2, 3}, Payload: []byte{9, 8, 7, 6}}
		path := filepath.Join(t.TempDir(), "b.prlc")
		if err := writeBlock(path, g, b); err != nil {
			t.Fatal(err)
		}
		g2, b2, err := readBlock(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Errorf("geometry changed through a round trip: %+v vs %+v", g, g2)
		}
		if b2.Level != b.Level || !bytes.Equal(b2.Coeff, b.Coeff) || !bytes.Equal(b2.Payload, b.Payload) {
			t.Errorf("block mismatch: %+v vs %+v", b2, b)
		}
	}
}

// mismatchedHeaderFile is a v2 block file whose header claims one level
// of 0xFFFFFFF0 source blocks around a valid 10-block PLC block: 247
// bytes that once made decode allocate a 32 GiB coefficient matrix.
func mismatchedHeaderFile(t testing.TB) []byte {
	t.Helper()
	levels, err := core.NewLevels(10)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]byte, 10)
	for i := range sources {
		sources[i] = bytes.Repeat([]byte{byte(i + 1)}, 200)
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	b, err := enc.Encode(rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(magic), formatVer, byte(core.PLC))
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, 0xFFFFFFF0)
	buf = binary.BigEndian.AppendUint64(buf, 2000)
	buf = binary.BigEndian.AppendUint32(buf, 200)
	return append(buf, wire...)
}

// TestReadBlockRejectsMismatchedHeader: a header whose source-block
// total differs from the block's coefficient length is refused before it
// can size a decoder.
func TestReadBlockRejectsMismatchedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crafted.prlc")
	if err := os.WriteFile(path, mismatchedHeaderFile(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readBlock(path); err == nil {
		t.Fatal("readBlock accepted a header claiming 0xFFFFFFF0 source blocks for a 10-coefficient block")
	}
}

// readBlockFiles loads every block file of a directory, returning the
// geometries and blocks in name order.
func readBlockFiles(t *testing.T, dir string) ([]cliutil.Geometry, []*core.CodedBlock) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hs []cliutil.Geometry
	var bs []*core.CodedBlock
	for _, e := range entries {
		h, b, err := readBlock(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		hs = append(hs, h)
		bs = append(bs, b)
	}
	return hs, bs
}

// TestCodingAutoDefault pins the coding choice: core.AutoCoding picks it
// from the generation size — dense frames at 40 source blocks, sparse v3
// frames once the generation passes 256.
func TestCodingAutoDefault(t *testing.T) {
	in := writeTempFile(t, 4000)

	denseDir := filepath.Join(t.TempDir(), "dense")
	if err := run([]string{
		"encode", "-in", in, "-out", denseDir,
		"-blocks", "40", "-coded", "45", "-levels", "0.2,0.8",
	}); err != nil {
		t.Fatal(err)
	}
	if got := core.AutoCoding(40); got != core.CodingDense {
		t.Fatalf("AutoCoding(40) = %v, want dense", got)
	}
	_, bs := readBlockFiles(t, denseDir)
	for i, b := range bs {
		if b.IsSparse() {
			t.Fatalf("auto at 40 blocks emitted sparse block %d, want dense", i)
		}
	}

	sparseDir := filepath.Join(t.TempDir(), "sparse")
	if err := run([]string{
		"encode", "-in", in, "-out", sparseDir,
		"-blocks", "300", "-coded", "310", "-levels", "0.2,0.8",
	}); err != nil {
		t.Fatal(err)
	}
	if got := core.AutoCoding(300); got != core.CodingSparse {
		t.Fatalf("AutoCoding(300) = %v, want sparse", got)
	}
	_, bs = readBlockFiles(t, sparseDir)
	for i, b := range bs {
		if !b.IsSparse() {
			t.Fatalf("auto at 300 blocks emitted dense block %d, want sparse", i)
		}
		if nnz := b.SpCoeff.NNZ(); nnz > 2*core.LogSparsity(300) {
			t.Fatalf("sparse block %d has %d nonzeros, want O(ln N)", i, nnz)
		}
	}
}

// TestChunkedEncodeDecodeRoundTrip drives chunked coding end to end (more
// than 1024 blocks picks it): v3 block files carry the chunk layout,
// every block is a span-sparse vector inside its chunk, and decode
// recovers the exact file through the chunked decoder.
func TestChunkedEncodeDecodeRoundTrip(t *testing.T) {
	in := writeTempFile(t, 9000)
	blocksDir := filepath.Join(t.TempDir(), "blocks")
	if err := run([]string{
		"encode", "-in", in, "-out", blocksDir,
		"-blocks", "1100", "-coded", "1400",
	}); err != nil {
		t.Fatal(err)
	}
	hs, bs := readBlockFiles(t, blocksDir)
	layout, err := core.NewChunkLayout(1100, hs[0].ChunkSize, hs[0].ChunkOverlap)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bs {
		if !hs[i].Chunked() {
			t.Fatalf("block file %d not marked chunked", i)
		}
		if !b.IsSparse() {
			t.Fatalf("chunked block %d not sparse", i)
		}
		lo, hi := layout.Span(b.Level)
		if slo, shi := b.SpCoeff.Support(); slo < lo || shi > hi {
			t.Fatalf("block %d support [%d,%d) escapes chunk span [%d,%d)", i, slo, shi, lo, hi)
		}
	}

	outFile := filepath.Join(t.TempDir(), "out.bin")
	if err := run([]string{"decode", "-in", blocksDir, "-out", outFile}); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(in)
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chunked decode mismatch: %d bytes vs %d", len(got), len(want))
	}
}
