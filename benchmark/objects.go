package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// geometry is one workload's code shape: N source blocks of payload
// bytes in equal priority levels, PLC, coded blocks drawn over the
// levels in proportion to their size.
type geometry struct {
	n, payload int
	lv         *core.Levels
}

func newGeometry(n, payload, levels int) geometry {
	lv, err := core.UniformLevels(levels, n/levels)
	if err != nil {
		panic(err) // the four geometries are constants of this program
	}
	return geometry{n: n, payload: payload, lv: lv}
}

func (g geometry) levels() int { return g.lv.Count() }

// pattern returns a shuffled level sequence holding ceil(factor·a_k)
// blocks of every level k. Walking it gives each level its share of
// coded blocks exactly, so whether an object decodes does not hang on a
// lucky draw and no workload has an operation that can fail by chance.
func (g geometry) pattern(rng *rand.Rand, factor float64) []int {
	var out []int
	for k := 0; k < g.levels(); k++ {
		for i := 0; i < g.perLevel(factor); i++ {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// perLevel is how many coded blocks of each level pattern(factor) holds.
func (g geometry) perLevel(factor float64) int {
	return int(math.Ceil(factor * float64(g.lv.Size(0))))
}

// object is one user object: its source blocks (the benchmark's ground
// truth) and an encoder over them.
type object struct {
	id      core.ObjectID
	sources [][]byte
	enc     *core.Encoder
}

// newSources draws an object's source blocks from rng.
func (g geometry) newSources(rng *rand.Rand) [][]byte {
	flat := make([]byte, g.n*g.payload)
	rng.Read(flat)
	src := make([][]byte, g.n)
	for i := range src {
		src[i] = flat[i*g.payload : (i+1)*g.payload]
	}
	return src
}

func (g geometry) newObject(id core.ObjectID, sources [][]byte) (*object, error) {
	enc, err := core.NewEncoder(core.PLC, g.lv, sources)
	if err != nil {
		return nil, err
	}
	return &object{id: id, sources: sources, enc: enc}, nil
}

// encode produces one coded block of the object at the given level.
func (o *object) encode(rng *rand.Rand, level int) (*core.CodedBlock, error) {
	b, err := o.enc.Encode(rng, level)
	if err != nil {
		return nil, err
	}
	b.Object = o.id
	return b, nil
}

// objectID derives a well-spread object id from the seed and two
// counters, avoiding the two reserved ids.
func objectID(seed int64, a, b int) core.ObjectID {
	v := uint64(seed)*0x9E3779B97F4A7C15 + uint64(a)*0xBF58476D1CE4E5B9 + uint64(b)*0x94D049BB133111EB
	v ^= v >> 31
	v *= 0xD6E8FEB86659FD93
	v ^= v >> 32
	if core.ObjectID(v) == core.ZeroObject || core.ObjectID(v) == core.AllObjects {
		v = 0x5851F42D4C957F2D
	}
	return core.ObjectID(v)
}

// decode absorbs blocks into a fresh decoder until the first `levels`
// levels are decoded (all of them when levels <= 0) or the blocks run
// out. It returns the decoder and how many blocks it consumed.
func (g geometry) decode(blocks []*core.CodedBlock, levels int) (*core.Decoder, int, error) {
	dec, err := core.NewDecoder(core.PLC, g.lv, g.payload)
	if err != nil {
		return nil, 0, err
	}
	if levels <= 0 || levels > g.levels() {
		levels = g.levels()
	}
	for i, b := range blocks {
		if _, err := dec.Add(b); err != nil {
			return dec, i, err
		}
		if dec.LevelDecoded(levels - 1) {
			return dec, i + 1, nil
		}
	}
	return dec, len(blocks), nil
}

// checkPrefix compares every source block of the decoded prefix with
// the object's originals and returns how many levels decoded. A decoded
// block that differs is an error: the prefix is bit-exact or absent,
// never wrong.
func (o *object) checkPrefix(g geometry, dec *core.Decoder) (int, error) {
	levels := dec.DecodedLevels()
	if levels == 0 {
		return 0, nil
	}
	for i := 0; i < g.lv.CumSize(levels-1); i++ {
		got, err := dec.Source(i)
		if err != nil {
			return levels, err
		}
		if !bytes.Equal(got, o.sources[i]) {
			return levels, fmt.Errorf("object %s: decoded source block %d differs from the original", o.id, i)
		}
	}
	return levels, nil
}

// missingAcked counts the acked wire encodings absent from a collect.
func missingAcked(acked map[string]bool, got []*core.CodedBlock) int {
	have := make(map[string]bool, len(got))
	for _, b := range got {
		if wire, err := b.MarshalBinary(); err == nil {
			have[string(wire)] = true
		}
	}
	missing := 0
	for wire := range acked {
		if !have[wire] {
			missing++
		}
	}
	return missing
}
