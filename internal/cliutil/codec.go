package cliutil

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/collect"
	"repro/internal/core"
)

// Geometry is what a decoder needs besides the blocks: the code they
// were drawn from and how the decoded sources map back onto the file.
// prlcfile writes it into every block file; prlcd store put prints it as
// the store get flags (Args), which GeometryFlags reads back.
type Geometry struct {
	Scheme     core.Scheme
	LevelSizes []int
	FileSize   uint64 // 0 = unknown: the prefix keeps its padding
	PayloadLen int
	// ChunkSize and ChunkOverlap are set only for chunk-coded files, whose
	// blocks carry the chunk index in their Level field.
	ChunkSize    int
	ChunkOverlap int
}

// Chunked reports whether the blocks are chunk coded.
func (g Geometry) Chunked() bool { return g.ChunkSize > 0 }

// Total is the number of source blocks.
func (g Geometry) Total() int {
	n := 0
	for _, s := range g.LevelSizes {
		n += s
	}
	return n
}

func (g Geometry) layout() (*core.ChunkLayout, error) {
	return core.NewChunkLayout(g.Total(), g.ChunkSize, g.ChunkOverlap)
}

// Groups is the number of block groups the store replicates by, most
// important first: the levels, or for a chunked file the chunks, which
// cover the file front to back, so level-decaying replication still
// keeps more copies of the prefix.
func (g Geometry) Groups() int {
	if g.Chunked() {
		if l, err := g.layout(); err == nil {
			return l.Count
		}
	}
	return len(g.LevelSizes)
}

// Args renders the geometry as the flags GeometryFlags parses. The
// payload length is not among them: it is read off the blocks.
func (g Geometry) Args() []string {
	sizes := make([]string, len(g.LevelSizes))
	for i, s := range g.LevelSizes {
		sizes[i] = strconv.Itoa(s)
	}
	args := []string{"-scheme", strings.ToLower(g.Scheme.String()), "-sizes", strings.Join(sizes, ","),
		"-size", strconv.FormatUint(g.FileSize, 10)}
	if g.Chunked() {
		args = append(args, "-chunks", fmt.Sprintf("%d,%d", g.ChunkSize, g.ChunkOverlap))
	}
	return args
}

// GeometryFlags registers the flags Args renders on fs and returns the
// function that reads them into a Geometry once fs has parsed.
func GeometryFlags(fs *flag.FlagSet) func() (Geometry, error) {
	var g Geometry
	scheme := fs.String("scheme", "plc", "coding scheme used at put time")
	sizes := fs.String("sizes", "", "per-level block counts from put time")
	fs.Uint64Var(&g.FileSize, "size", 0, "original file size (0 = keep padding)")
	chunks := fs.String("chunks", "", "size,overlap of the chunk layout when put chunk coded the file (more than 1024 blocks)")
	return func() (Geometry, error) {
		var err error
		if g.Scheme, err = core.ParseScheme(*scheme); err != nil {
			return Geometry{}, err
		}
		if *sizes == "" {
			return Geometry{}, fmt.Errorf("-sizes is required")
		}
		if g.LevelSizes, err = ParseInts(*sizes); err != nil {
			return Geometry{}, fmt.Errorf("-sizes: %w", err)
		}
		if *chunks != "" {
			dims, err := ParseInts(*chunks)
			if err != nil || len(dims) != 2 {
				return Geometry{}, fmt.Errorf("-chunks wants size,overlap, got %q", *chunks)
			}
			g.ChunkSize, g.ChunkOverlap = dims[0], dims[1]
		}
		return g, nil
	}
}

// EncodeFlags are the encode-side flags prlcfile encode and prlcd store
// put share.
type EncodeFlags struct {
	Blocks, Coded        int
	Levels, Dist, Scheme string
	Seed                 int64
}

// Register adds the flags to fs.
func (f *EncodeFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Blocks, "blocks", 100, "number of source blocks to split the file into")
	fs.IntVar(&f.Coded, "coded", 0, "number of coded blocks to produce (0 = 1.6x blocks)")
	fs.StringVar(&f.Levels, "levels", "0.1,0.2,0.7", "comma-separated level fractions of the file, most important first")
	fs.StringVar(&f.Dist, "dist", "", "priority distribution over levels (default uniform)")
	fs.StringVar(&f.Scheme, "scheme", "plc", "coding scheme: rlc, slc or plc")
	fs.Int64Var(&f.Seed, "seed", 1, "random seed")
}

// EncodeFile splits the file at path into source blocks and encodes
// them, returning the coded blocks and the geometry that decodes them.
// core.AutoCoding picks the coefficient generator from the block count.
// The blocks are a function of the flags alone: level-structured codings
// run Encoder.EncodeSeeded, bit-identical for any GOMAXPROCS.
func (f EncodeFlags) EncodeFile(path string) (Geometry, []*core.CodedBlock, error) {
	scheme, err := core.ParseScheme(f.Scheme)
	if err != nil {
		return Geometry{}, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Geometry{}, nil, err
	}
	if len(data) == 0 {
		return Geometry{}, nil, fmt.Errorf("%s is empty", path)
	}
	blocks, coded := min(f.Blocks, len(data)), f.Coded
	if blocks <= 0 {
		return Geometry{}, nil, fmt.Errorf("-blocks %d, want > 0", f.Blocks)
	}
	if coded == 0 {
		coded = blocks + (blocks*3+4)/5
	}
	if coded < blocks {
		return Geometry{}, nil, fmt.Errorf("-coded %d < -blocks %d cannot ever fully recover", coded, blocks)
	}
	fracs, err := ParseFloats(f.Levels)
	if err != nil {
		return Geometry{}, nil, fmt.Errorf("-levels: %w", err)
	}
	sizes, err := FractionsToSizes(fracs, blocks)
	if err != nil {
		return Geometry{}, nil, err
	}
	levels, err := core.NewLevels(sizes...)
	if err != nil {
		return Geometry{}, nil, err
	}
	dist := core.NewUniformDistribution(levels.Count())
	if f.Dist != "" {
		if dist, err = ParseFloats(f.Dist); err != nil {
			return Geometry{}, nil, fmt.Errorf("-dist: %w", err)
		}
	}
	if err := dist.Validate(levels); err != nil {
		return Geometry{}, nil, err
	}
	coding := core.AutoCoding(blocks)

	sources := SplitPayloads(data, blocks)
	g := Geometry{Scheme: scheme, LevelSizes: sizes, FileSize: uint64(len(data)), PayloadLen: len(sources[0])}
	if coding == core.CodingChunked {
		// Chunked coding trades the level structure for flat per-chunk
		// generations: the scheme and distribution do not apply.
		layout, err := core.DefaultChunkLayout(blocks)
		if err != nil {
			return Geometry{}, nil, err
		}
		g.ChunkSize, g.ChunkOverlap = layout.Size, layout.Overlap
		enc, err := core.NewChunkedEncoder(layout, sources)
		if err != nil {
			return Geometry{}, nil, err
		}
		cb, err := enc.EncodeBatch(rand.New(rand.NewSource(f.Seed)), coded)
		return g, cb, err
	}
	var opts []core.EncoderOption
	if coding == core.CodingSparse {
		opts = append(opts, core.WithSparsity(core.LogSparsity(blocks)))
	}
	enc, err := core.NewEncoder(scheme, levels, sources, opts...)
	if err != nil {
		return Geometry{}, nil, err
	}
	cb, err := enc.EncodeSeeded(f.Seed, dist, coded)
	return g, cb, err
}

// Decoder is a file's decoder: collect.Run feeds it, Recovered reads it.
type Decoder interface {
	collect.Decoder
	Sources() [][]byte
}

// Decoder builds the decoder g's blocks need: the chunked decoder for a
// chunk-coded file, else the level-structured one.
func (g Geometry) Decoder() (Decoder, error) {
	levels, err := core.NewLevels(g.LevelSizes...)
	if err != nil {
		return nil, err
	}
	if !g.Chunked() {
		dec, err := core.NewDecoder(g.Scheme, levels, g.PayloadLen)
		if err != nil {
			return nil, err
		}
		return dec, nil
	}
	layout, err := g.layout()
	if err != nil {
		return nil, err
	}
	dec, err := core.NewChunkedDecoder(layout, g.PayloadLen)
	if err != nil {
		return nil, err
	}
	return dec, nil
}

// Recovered is the file a decode recovered — the decoded source blocks
// from the front up to the first gap, cut to the file size — and its
// one-line report.
func (g Geometry) Recovered(dec Decoder, res collect.Result) ([]byte, string) {
	var buf []byte
	for _, p := range dec.Sources() {
		if p == nil {
			break
		}
		buf = append(buf, p...)
	}
	if g.FileSize > 0 && uint64(len(buf)) > g.FileSize {
		buf = buf[:g.FileSize]
	}
	note := "chunked"
	if !g.Chunked() {
		note = fmt.Sprintf("%d levels", res.DecodedLevels)
	}
	s := fmt.Sprintf("decoded %d/%d source blocks (%s), %d bytes", res.DecodedBlocks, g.Total(), note, len(buf))
	switch {
	case res.Complete:
		s += " (complete file)"
	case g.FileSize > 0:
		s += fmt.Sprintf(" (partial recovery: %.1f%% of the file)", 100*float64(len(buf))/float64(g.FileSize))
	}
	return buf, s
}
