package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/gf256"
)

// CodedBlock is one encoded unit stored in the network: the level it was
// generated for, its coding-coefficient vector over all N source blocks
// (zero outside the scheme's support), and the encoded payload.
//
// The coefficients are carried in exactly one of two representations:
// dense in Coeff, or canonical sparse in SpCoeff (with Coeff nil). Sparse
// blocks stay sparse through marshaling (the v3 wire encoding), decode
// (gfmat.Decoder.AddSparse) and recombination. A dense block the Encoder
// drew also carries the seed its Coeff was expanded from, and marshals as
// the 16-byte-coded v5 frame while Coeff still matches it; any other
// dense block keeps the v1 wire encoding bit for bit.
type CodedBlock struct {
	// Object names the logical data object the block belongs to. The zero
	// object is the key-less legacy namespace: it marshals as the original
	// v1/v3 wire frames, non-zero objects as the keyed v2/v4 frames.
	Object  ObjectID
	Level   int
	Coeff   []byte
	SpCoeff *SparseCoeff
	Payload []byte

	// seed, when seeded is set, is the seed Coeff was expanded from (see
	// seedcoeff.go). MarshalBinary re-checks the match, so a block whose
	// Coeff changed since simply marshals dense.
	seed   uint64
	seeded bool
}

// IsSparse reports whether the block carries its coefficients sparsely.
func (b *CodedBlock) IsSparse() bool { return b.SpCoeff != nil }

// CoeffLen returns the dense length of the coefficient vector regardless
// of representation.
func (b *CodedBlock) CoeffLen() int {
	if b.SpCoeff != nil {
		return b.SpCoeff.Len
	}
	return len(b.Coeff)
}

// DenseCoeff returns the dense coefficient vector: Coeff itself for a
// dense block (no copy), or a fresh materialization for a sparse one.
// Callers that only need structure should prefer the sparse form.
func (b *CodedBlock) DenseCoeff() []byte {
	if b.SpCoeff != nil {
		return b.SpCoeff.Dense()
	}
	return b.Coeff
}

// Clone returns a deep copy of the block, its seed included, so a clone
// marshals to the original's bytes. Nil-ness and emptiness of the slices
// are preserved: a nil Coeff stays nil and an empty non-nil Payload stays
// empty non-nil.
func (b *CodedBlock) Clone() *CodedBlock {
	c := &CodedBlock{Object: b.Object, Level: b.Level, seed: b.seed, seeded: b.seeded}
	if b.Coeff != nil {
		c.Coeff = make([]byte, len(b.Coeff))
		copy(c.Coeff, b.Coeff)
	}
	if b.SpCoeff != nil {
		c.SpCoeff = b.SpCoeff.Clone()
	}
	if b.Payload != nil {
		c.Payload = make([]byte, len(b.Payload))
		copy(c.Payload, b.Payload)
	}
	return c
}

// EncoderOption customizes an Encoder.
type EncoderOption func(*encoderConfig)

type encoderConfig struct {
	sparsity int
}

// WithSparsity limits each coded block to at most d nonzero coefficients,
// chosen at uniformly random positions within the block's support. d <= 0
// means dense (the default). Sec. 4 of the paper invokes the Dimakis et al.
// result that d = Θ(ln N) suffices for decodability w.h.p., which is what
// makes the pre-distribution protocol bandwidth-efficient.
func WithSparsity(d int) EncoderOption {
	return func(c *encoderConfig) { c.sparsity = d }
}

// LogSparsity returns the 3·ln(N) coefficient budget (at least 1) commonly
// used with WithSparsity for N source blocks.
func LogSparsity(n int) int {
	if n <= 1 {
		return 1
	}
	d := int(math.Ceil(3 * math.Log(float64(n))))
	if d < 1 {
		d = 1
	}
	return d
}

// Encoder produces coded blocks for a fixed scheme, level structure and
// source payload set. It is safe for concurrent use only with external
// synchronization of the *rand.Rand passed to Encode.
type Encoder struct {
	scheme     Scheme
	levels     *Levels
	sources    [][]byte // nil when payloadLen == 0 (coefficient-only experiments)
	payloadLen int
	sparsity   int
}

// NewEncoder constructs an encoder. sources must either be nil/empty (for
// coefficient-only Monte-Carlo experiments, where payloads are skipped) or
// contain exactly levels.Total() equal-length payloads.
func NewEncoder(scheme Scheme, levels *Levels, sources [][]byte, opts ...EncoderOption) (*Encoder, error) {
	if !scheme.Valid() {
		return nil, fmt.Errorf("core: invalid scheme %v", scheme)
	}
	if levels == nil {
		return nil, fmt.Errorf("core: nil levels")
	}
	var cfg encoderConfig
	for _, o := range opts {
		o(&cfg)
	}
	e := &Encoder{
		scheme:   scheme,
		levels:   levels,
		sparsity: cfg.sparsity,
	}
	if len(sources) > 0 {
		if len(sources) != levels.Total() {
			return nil, fmt.Errorf("core: %d source payloads, want %d", len(sources), levels.Total())
		}
		e.payloadLen = len(sources[0])
		e.sources = make([][]byte, len(sources))
		for i, s := range sources {
			if len(s) != e.payloadLen {
				return nil, fmt.Errorf("core: source %d has %d bytes, want %d", i, len(s), e.payloadLen)
			}
			e.sources[i] = append([]byte(nil), s...)
		}
	}
	return e, nil
}

// Scheme returns the encoder's coding scheme.
func (e *Encoder) Scheme() Scheme { return e.scheme }

// Levels returns the encoder's priority structure.
func (e *Encoder) Levels() *Levels { return e.levels }

// PayloadLen returns the per-block payload size in bytes (0 when encoding
// coefficients only).
func (e *Encoder) PayloadLen() int { return e.payloadLen }

// Encode generates one coded block for the given level. Coefficients are
// uniform over the nonzero field elements on the scheme's support: a
// dense block's are the expansion of one rng.Uint64() seed, which the
// block keeps for the v5 wire frame. With WithSparsity they cover a
// sparse random subset of the support instead, drawn value by value, and
// the block carries them in sparse form without ever materializing the
// dense vector.
func (e *Encoder) Encode(rng *rand.Rand, level int) (*CodedBlock, error) {
	cd, err := e.drawCoeff(rng, level)
	if err != nil {
		return nil, err
	}
	return e.encodeDraw(level, cd), nil
}

// encodeDraw builds the coded block of one coefficient draw.
func (e *Encoder) encodeDraw(level int, cd coeffDraw) *CodedBlock {
	b := &CodedBlock{Level: level, Coeff: cd.dense, SpCoeff: cd.sp, seed: cd.seed, seeded: cd.dense != nil}
	if e.payloadLen > 0 {
		b.Payload = make([]byte, e.payloadLen)
		e.foldPayload(b.Payload, cd)
	} else {
		b.Payload = []byte{}
	}
	return b
}

// coeffDraw is one drawn coefficient vector: dense over [lo, hi) and
// expanded from seed, or canonical sparse with dense == nil. Exactly one
// of the two is set.
type coeffDraw struct {
	dense  []byte
	sp     *SparseCoeff
	lo, hi int
	seed   uint64
}

// drawCoeff draws one coded block's coefficient vector for the given level
// and returns it together with the scheme's support range. It is the only
// consumer of the generator: the payload is a function of the draw.
func (e *Encoder) drawCoeff(rng *rand.Rand, level int) (coeffDraw, error) {
	lo, hi, err := e.scheme.Support(e.levels, level)
	if err != nil {
		return coeffDraw{}, err
	}
	span := hi - lo
	if e.sparseOver(span) {
		// Sparse: choose e.sparsity distinct positions within the support.
		// The positions come out of Perm in random order (the order the
		// historical dense path consumed values in, kept so fixed seeds
		// yield the same blocks) and are sorted into canonical form.
		d := e.sparsity
		pos := make([]int, d)
		val := make(map[int]byte, d)
		for i, off := range rng.Perm(span)[:d] {
			pos[i] = lo + off
			val[lo+off] = byte(1 + rng.Intn(255))
		}
		sort.Ints(pos)
		s := &SparseCoeff{Len: e.levels.Total(), Idx: make([]uint32, d), Val: make([]byte, d)}
		for i, p := range pos {
			s.Idx[i] = uint32(p)
			s.Val[i] = val[p]
		}
		return coeffDraw{sp: s, lo: pos[0], hi: pos[d-1] + 1}, nil
	}
	return e.denseDraw(lo, hi, rng.Uint64()), nil
}

// sparseOver reports whether a block whose support spans span columns is
// drawn sparse: only with WithSparsity, and only where the sparsity is
// below the span.
func (e *Encoder) sparseOver(span int) bool { return e.sparsity > 0 && e.sparsity < span }

// denseDraw is the dense coefficient vector over [lo, hi) expanded from
// seed.
func (e *Encoder) denseDraw(lo, hi int, seed uint64) coeffDraw {
	coeff := make([]byte, e.levels.Total())
	expandSeed(coeff[lo:hi], seed)
	return coeffDraw{dense: coeff, lo: lo, hi: hi, seed: seed}
}

// foldPayload accumulates the coded payload into dst: dst ^=
// coeff[j]·sources[j] over the draw's support. A sparse draw folds only
// its nonzero entries — the O(ln N) encode cost the sparse representation
// exists for.
func (e *Encoder) foldPayload(dst []byte, cd coeffDraw) {
	if cd.sp != nil {
		for i, j := range cd.sp.Idx {
			gf256.AddMulSlice(dst, e.sources[j], cd.sp.Val[i])
		}
		return
	}
	for j := cd.lo; j < cd.hi; j++ {
		if c := cd.dense[j]; c != 0 {
			gf256.AddMulSlice(dst, e.sources[j], c)
		}
	}
}

// EncodeBatch draws `count` coded-block levels from the priority
// distribution and encodes each — the random accumulation model of
// Sec. 3.3 ("M randomly accumulated coded blocks").
func (e *Encoder) EncodeBatch(rng *rand.Rand, p PriorityDistribution, count int) ([]*CodedBlock, error) {
	sampler, err := e.batchSampler(p, count)
	if err != nil {
		return nil, err
	}
	out := make([]*CodedBlock, 0, count)
	for i := 0; i < count; i++ {
		b, err := e.Encode(rng, sampler.Draw(rng))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// EncodeSeeded is EncodeBatch for a batch that is a function of seed alone,
// encoded on GOMAXPROCS workers. One sequential pass over the seed's
// stream pins every block's level and private seed before any worker
// starts; workers then encode whole blocks, each from its own seed, so the
// output does not depend on the worker count or the scheduling. A dense
// block's private seed is its coefficient seed; a sparse block draws its
// positions and values from a math/rand source seeded with it. The batch
// is not the one EncodeBatch draws from the same seed.
func (e *Encoder) EncodeSeeded(seed int64, p PriorityDistribution, count int) ([]*CodedBlock, error) {
	sampler, err := e.batchSampler(p, count)
	if err != nil {
		return nil, err
	}
	parent := rand.New(rand.NewSource(seed))
	levels := make([]int, count)
	seeds := make([]int64, count)
	for i := range count {
		levels[i] = sampler.Draw(parent)
		seeds[i] = parent.Int63()
	}

	out := make([]*CodedBlock, count)
	workers := min(runtime.GOMAXPROCS(0), count)
	errs := make([]error, workers)
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0))
			for i := int(next.Add(1) - 1); i < count; i = int(next.Add(1) - 1) {
				b, err := e.seededBlock(rng, seeds[i], levels[i])
				if err != nil {
					errs[w] = fmt.Errorf("core: encode block %d: %w", i, err)
					return
				}
				out[i] = b
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// seededBlock encodes one block of an EncodeSeeded batch from its private
// seed. Seeding a math/rand source runs hundreds of rounds of its
// generator, so only a sparse block, which draws from one, re-seeds the
// worker's rng.
func (e *Encoder) seededBlock(rng *rand.Rand, seed int64, level int) (*CodedBlock, error) {
	lo, hi, err := e.scheme.Support(e.levels, level)
	if err != nil {
		return nil, err
	}
	if !e.sparseOver(hi - lo) {
		return e.encodeDraw(level, e.denseDraw(lo, hi, uint64(seed))), nil
	}
	rng.Seed(seed)
	return e.Encode(rng, level)
}

// batchSampler validates a batch request and builds its level sampler.
func (e *Encoder) batchSampler(p PriorityDistribution, count int) (*dist.Categorical, error) {
	if err := p.Validate(e.levels); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("core: negative batch count %d", count)
	}
	sampler, err := dist.NewCategorical(p)
	if err != nil {
		return nil, fmt.Errorf("core: build level sampler: %w", err)
	}
	return sampler, nil
}
