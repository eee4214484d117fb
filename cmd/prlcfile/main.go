// Command prlcfile encodes a file into priority-coded block files and
// decodes them back — a tangible demonstration of differentiated
// persistence: delete a fraction of the block files and decoding still
// recovers the highest-priority prefix of the file.
//
// Usage:
//
//	prlcfile encode -in report.pdf -out blocks/ -blocks 100 -coded 160 \
//	         -levels 0.1,0.2,0.7 -dist 0.4,0.3,0.3 -scheme plc
//	rm blocks/block_00*.prlc        # lose some of them
//	prlcfile decode -in blocks/ -out recovered.pdf
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/collect"
	"repro/internal/core"
)

// Block-file format: the file's cliutil.Geometry followed by the block in
// the standard CodedBlock wire encoding (MarshalBinary), so the file
// format and the store's network format share one serialization. Version
// 2 covers the level-structured codings (dense and sparse, plus the band
// coding older builds wrote — the block wire encoding tells them apart);
// version 3 appends the chunk layout (size and overlap, uint32 each) that
// chunk-coded blocks need to route their Level-as-chunk-index on decode.
const (
	magic            = "PRLC"
	formatVer        = 2
	formatVerChunked = 3
	blockSuffix      = ".prlc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prlcfile:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: prlcfile encode|decode [flags]")
	}
	switch args[0] {
	case "encode":
		return encode(args[1:])
	case "decode":
		return decode(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want encode or decode)", args[0])
	}
}

func encode(args []string) error {
	fs := flag.NewFlagSet("prlcfile encode", flag.ContinueOnError)
	in := fs.String("in", "", "input file")
	out := fs.String("out", "", "output directory for block files")
	var ef cliutil.EncodeFlags
	ef.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("encode: -in and -out are required")
	}
	g, cb, err := ef.EncodeFile(*in)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	dir := filepath.Clean(*out)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, b := range cb {
		if err := writeBlock(filepath.Join(dir, fmt.Sprintf("block_%05d%s", i, blockSuffix)), g, b); err != nil {
			return err
		}
	}
	fmt.Printf("encoded %s into %d coded blocks in %s: %s, payload %d bytes/block\n",
		*in, len(cb), dir, strings.Join(g.Args(), " "), g.PayloadLen)
	return nil
}

// decode collects the block files in name order, stopping once the file
// is complete. The first file that reads and builds a decoder fixes the
// geometry; unreadable, mismatched or rejected files are skipped and
// reported.
func decode(args []string) error {
	fs := flag.NewFlagSet("prlcfile decode", flag.ContinueOnError)
	in := fs.String("in", "", "directory of block files")
	out := fs.String("out", "", "output file for the recovered prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("decode: -in and -out are required")
	}
	entries, err := os.ReadDir(*in)
	if err != nil {
		return err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), blockSuffix) {
			paths = append(paths, filepath.Join(*in, e.Name()))
		}
	}
	skip := func(path string, err error) {
		fmt.Fprintf(os.Stderr, "prlcfile: skipping %s: %v\n", path, err)
	}
	var (
		g0  cliutil.Geometry
		dec cliutil.Decoder
	)
	for ; len(paths) > 0; paths = paths[1:] {
		g, _, err := readBlock(paths[0])
		if err == nil {
			if dec, err = g.Decoder(); err == nil {
				g0 = g
				break
			}
		}
		skip(paths[0], err)
	}
	if len(paths) == 0 {
		return fmt.Errorf("decode: no readable %s block files in %s", blockSuffix, *in)
	}
	// The collection starts at the file that fixed the geometry and reads
	// the rest lazily: once the file is complete, no more files.
	next := 0
	src := func() (*core.CodedBlock, error) {
		if next == len(paths) {
			return nil, io.EOF
		}
		next++
		g, b, err := readBlock(paths[next-1])
		if err == nil && !reflect.DeepEqual(g, g0) {
			err = fmt.Errorf("geometry differs from the first block file's")
		}
		return b, err
	}
	res, err := collect.Run(src, dec, collect.Options{})
	if err != nil {
		return err
	}
	for _, r := range res.Rejected {
		skip(paths[r.Draw], r.Err)
	}
	file, summary := g0.Recovered(dec, res)
	if err := os.WriteFile(*out, file, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", *out, summary)
	return nil
}

// writeBlock writes the geometry header then the block's standard wire
// encoding. Chunked geometries get the v3 format with the chunk layout
// appended; everything else keeps the v2 bytes.
func writeBlock(path string, g cliutil.Geometry, b *core.CodedBlock) error {
	var buf []byte
	buf = append(buf, magic...)
	if g.Chunked() {
		buf = append(buf, formatVerChunked)
	} else {
		buf = append(buf, formatVer)
	}
	buf = append(buf, byte(g.Scheme))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(g.LevelSizes)))
	for _, s := range g.LevelSizes {
		buf = binary.BigEndian.AppendUint32(buf, uint32(s))
	}
	buf = binary.BigEndian.AppendUint64(buf, g.FileSize)
	buf = binary.BigEndian.AppendUint32(buf, uint32(g.PayloadLen))
	if g.Chunked() {
		buf = binary.BigEndian.AppendUint32(buf, uint32(g.ChunkSize))
		buf = binary.BigEndian.AppendUint32(buf, uint32(g.ChunkOverlap))
	}
	wire, err := b.MarshalBinary()
	if err != nil {
		return err
	}
	buf = append(buf, wire...)
	return os.WriteFile(path, buf, 0o644)
}

// readBlock parses a block file. The header must describe the block it
// carries: its payload length and source-block total are checked against
// the block's, which the wire format bounds, so a crafted header cannot
// size the decoder.
func readBlock(path string) (cliutil.Geometry, *core.CodedBlock, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return cliutil.Geometry{}, nil, err
	}
	if len(data) < len(magic)+2 || string(data[:4]) != magic {
		return cliutil.Geometry{}, nil, fmt.Errorf("not a PRLC block file")
	}
	ver := data[4]
	if ver != formatVer && ver != formatVerChunked {
		return cliutil.Geometry{}, nil, fmt.Errorf("unsupported format version %d", ver)
	}
	// The header: scheme, level count and sizes, file size, payload
	// length, and in v3 the chunk size and overlap.
	hdr := 8
	if len(data) >= hdr {
		hdr += 4*int(binary.BigEndian.Uint16(data[6:])) + 8 + 4
		if ver == formatVerChunked {
			hdr += 8
		}
	}
	if len(data) < hdr {
		return cliutil.Geometry{}, nil, fmt.Errorf("truncated block file")
	}
	off := 8
	u32 := func() int {
		off += 4
		return int(binary.BigEndian.Uint32(data[off-4:]))
	}
	g := cliutil.Geometry{Scheme: core.Scheme(data[5]), LevelSizes: make([]int, binary.BigEndian.Uint16(data[6:]))}
	for i := range g.LevelSizes {
		g.LevelSizes[i] = u32()
	}
	g.FileSize = binary.BigEndian.Uint64(data[off:])
	off += 8
	g.PayloadLen = u32()
	if ver == formatVerChunked {
		if g.ChunkSize, g.ChunkOverlap = u32(), u32(); g.ChunkSize <= 0 {
			return cliutil.Geometry{}, nil, fmt.Errorf("chunked block file with chunk size %d", g.ChunkSize)
		}
	}
	// The remainder is the block's standard wire encoding.
	b := &core.CodedBlock{}
	if err := b.UnmarshalBinary(data[off:]); err != nil {
		return cliutil.Geometry{}, nil, err
	}
	if len(b.Payload) != g.PayloadLen {
		return cliutil.Geometry{}, nil, fmt.Errorf("block payload %d bytes, header says %d", len(b.Payload), g.PayloadLen)
	}
	if g.Total() != b.CoeffLen() {
		return cliutil.Geometry{}, nil, fmt.Errorf("block codes %d source blocks, header says %d", b.CoeffLen(), g.Total())
	}
	return g, b, nil
}
