package core

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrWireFormat is wrapped by every UnmarshalBinary failure, so callers
// sorting good blocks from corrupt ones branch with errors.Is instead of
// string matching.
var ErrWireFormat = errors.New("core: malformed wire block")

// Wire format for coded blocks, so deployments can ship them over
// sockets or store them on disk:
//
//	magic   "PB"         2 bytes
//	version 1 … 5        1 byte
//	object  uint64       big endian  (versions 2, 4 and 5 only)
//	level   uint16       big endian
//	nCoeff  uint32       big endian  (dense coefficient length)
//	nPay    uint32       big endian
//	coeff   version-dependent, see below
//	payload nPay bytes
//
// Versions 2 and 4 are the object-keyed forms of 1 and 3: they insert
// the 8-byte ObjectID immediately after the version byte and are
// otherwise identical. A block with the zero (legacy) object marshals
// as v1/v3, bit-identical to prior releases, and key-less v1/v3 frames
// decode as the zero object — so old and new daemons interoperate on
// the single-object workload, and dedup by marshaled bytes keeps
// working across the version bump. A v2/v4 frame carrying the zero
// object is rejected as non-canonical for the same reason.
//
// Versions 1 and 2 carry the coefficients dense: nCoeff raw bytes.
// Versions 3 and 4 carry them sparse, shipping only the nonzero
// structure:
//
//	mode    1 byte
//	mode 0 (index/value pairs):
//	  nnz   uint32 big endian
//	  idx   nnz × uint32 big endian, strictly increasing, < nCoeff
//	  val   nnz bytes, all nonzero
//	mode 1 (contiguous span):
//	  start uint32 big endian
//	  width uint32 big endian   (start+width ≤ nCoeff, width ≥ 1)
//	  raw   width bytes, first and last nonzero
//
// Version 5 always carries the object (the zero object included) and
// names how its coefficients travel with a kind byte. Its one defined
// kind is 2, seed (0 and 1 are held for dense and sparse):
//
//	kind    1 byte               2 = seed
//	lo      uint32 big endian    support [lo, hi): lo < hi ≤ nCoeff
//	hi      uint32 big endian
//	seed    uint64 big endian    coefficients [lo, hi) are the first
//	                             hi−lo bytes of expandSeed(seed), the
//	                             rest zero
//
// The encoding is canonical: a sparse block marshals in whichever mode
// costs fewer bytes (pairs: 4+5·nnz, span: 8+width; ties go to pairs);
// a dense block marshals as v5 exactly when it still carries its seed,
// its Coeff is that seed's expansion, nCoeff ≤ maxSeedCoeffLen and the
// frame is smaller than the v1/v2 one (seedSupport), and as v1/v2
// otherwise. UnmarshalBinary rejects every frame marshal would not have
// produced — wrong sparse mode, zero pair values, span padding at the
// edges, a seed frame no smaller than the dense one — so every accepted
// frame re-marshals bit-identically, and which representation a block
// uses survives a marshal round trip.
const (
	wireMagic        = "PB"
	wireVersion      = 1
	wireVersionKey   = 2
	wireVersionSpars = 3
	wireVersionSpKey = 4
	wireVersionSeed  = 5
	wireHeader       = 2 + 1 + 2 + 4 + 4
	// wireKeyedHeader is wireHeader plus the 8-byte object ID that
	// v2/v4/v5 frames insert after the version byte.
	wireKeyedHeader = wireHeader + 8
	// wireSeedHeader is the whole v5 frame but its payload: the keyed
	// header, the kind byte, the support and the seed.
	wireSeedHeader = wireKeyedHeader + 1 + 4 + 4 + 8

	wireModePairs = 0
	wireModeSpan  = 1

	coeffKindSeed = 2

	// maxSparseCoeffLen bounds the dense length a v3 frame may claim.
	// Unlike v1, where nCoeff is implicitly bounded by the bytes actually
	// present, a sparse frame declares a dense length it never ships — a
	// hostile frame could claim 4 GiB and blow up the first densification.
	maxSparseCoeffLen = 1 << 24
	// maxSeedCoeffLen bounds the dense length a v5 frame may claim, for
	// the same reason and more so: unmarshal materializes it at once. A
	// block with more coefficients marshals dense.
	maxSeedCoeffLen = 1 << 16
)

var (
	_ encoding.BinaryMarshaler   = (*CodedBlock)(nil)
	_ encoding.BinaryUnmarshaler = (*CodedBlock)(nil)
)

// sparseWireCost returns the v3 coefficient-section size (mode byte
// included) of a canonical sparse vector, choosing the cheaper mode.
func sparseWireCost(s *SparseCoeff) int {
	pairs := 1 + 4 + 5*s.NNZ()
	if s.NNZ() == 0 {
		return pairs
	}
	lo, hi := s.Support()
	span := 1 + 8 + (hi - lo)
	if span < pairs {
		return span
	}
	return pairs
}

// headerSize returns the v1–v4 header length of a block of obj: keyed
// frames carry the 8-byte object ID, legacy zero-object frames do not.
func headerSize(obj ObjectID) int {
	if obj != ZeroObject {
		return wireKeyedHeader
	}
	return wireHeader
}

// WireSize returns the exact MarshalBinary output size in bytes.
func (b *CodedBlock) WireSize() int {
	if b.SpCoeff != nil {
		return headerSize(b.Object) + sparseWireCost(b.SpCoeff) + len(b.Payload)
	}
	if _, _, ok := b.seedSupport(); ok {
		return wireSeedHeader + len(b.Payload)
	}
	return headerSize(b.Object) + len(b.Coeff) + len(b.Payload)
}

// appendHeader appends the fixed header of a frame of the given base
// version: 1 (dense) and 3 (sparse) step up to their keyed forms for a
// keyed block, and 5 always carries the object.
func (b *CodedBlock) appendHeader(out []byte, version byte, nCoeff int) []byte {
	keyed := version == wireVersionSeed || b.Object != ZeroObject
	if keyed && version != wireVersionSeed {
		version++ // v1 → v2, v3 → v4
	}
	out = append(out, wireMagic...)
	out = append(out, version)
	if keyed {
		out = binary.BigEndian.AppendUint64(out, uint64(b.Object))
	}
	out = binary.BigEndian.AppendUint16(out, uint16(b.Level))
	out = binary.BigEndian.AppendUint32(out, uint32(nCoeff))
	return binary.BigEndian.AppendUint32(out, uint32(len(b.Payload)))
}

// MarshalBinary encodes the block in the wire format: v5 for a dense
// block that still carries its seed (see seedSupport), otherwise version
// 1/3 for zero-object blocks (bit-identical to prior releases) and
// version 2/4 — same layout plus the 8-byte object ID — for keyed ones.
func (b *CodedBlock) MarshalBinary() ([]byte, error) {
	if b.Level < 0 || b.Level > 0xFFFF {
		return nil, fmt.Errorf("core: level %d does not fit the wire format", b.Level)
	}
	if b.Object == AllObjects {
		return nil, fmt.Errorf("core: block carries the reserved all-objects wildcard %s", b.Object)
	}
	s := b.SpCoeff
	if s == nil {
		if lo, hi, ok := b.seedSupport(); ok {
			out := b.appendHeader(make([]byte, 0, wireSeedHeader+len(b.Payload)), wireVersionSeed, len(b.Coeff))
			out = append(out, coeffKindSeed)
			out = binary.BigEndian.AppendUint32(out, uint32(lo))
			out = binary.BigEndian.AppendUint32(out, uint32(hi))
			out = binary.BigEndian.AppendUint64(out, b.seed)
			return append(out, b.Payload...), nil
		}
		out := b.appendHeader(make([]byte, 0, headerSize(b.Object)+len(b.Coeff)+len(b.Payload)), wireVersion, len(b.Coeff))
		out = append(out, b.Coeff...)
		return append(out, b.Payload...), nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Len > maxSparseCoeffLen {
		return nil, fmt.Errorf("core: sparse coefficient length %d exceeds wire maximum %d", s.Len, maxSparseCoeffLen)
	}
	out := b.appendHeader(make([]byte, 0, headerSize(b.Object)+sparseWireCost(s)+len(b.Payload)), wireVersionSpars, s.Len)
	lo, hi := s.Support()
	if s.NNZ() > 0 && 1+8+(hi-lo) < 1+4+5*s.NNZ() {
		out = append(out, wireModeSpan)
		out = binary.BigEndian.AppendUint32(out, uint32(lo))
		out = binary.BigEndian.AppendUint32(out, uint32(hi-lo))
		raw := make([]byte, hi-lo)
		for i, j := range s.Idx {
			raw[int(j)-lo] = s.Val[i]
		}
		out = append(out, raw...)
	} else {
		out = append(out, wireModePairs)
		out = binary.BigEndian.AppendUint32(out, uint32(s.NNZ()))
		for _, j := range s.Idx {
			out = binary.BigEndian.AppendUint32(out, j)
		}
		out = append(out, s.Val...)
	}
	out = append(out, b.Payload...)
	return out, nil
}

// UnmarshalBinary decodes a block from the wire format, copying the
// input. Version 1/2 frames yield dense blocks, version 3/4 frames
// sparse ones, and a version 5 seed frame a dense block whose Coeff is
// the seed's expansion, materialized here and carrying its seed (so it
// re-marshals as the same v5 frame). The keyed versions (2/4/5) carry
// the ObjectID, the legacy ones decode as the zero object. Hostile
// frames — inflated index counts, out-of-range or duplicate indices, a
// seed frame claiming more than maxSeedCoeffLen coefficients,
// non-canonical encodings (including a keyed frame carrying a reserved
// object) — are rejected with ErrWireFormat before any structure-sized
// allocation happens.
func (b *CodedBlock) UnmarshalBinary(data []byte) error {
	return b.parse(data, false, true)
}

// UnmarshalBinaryAlias is UnmarshalBinary without the copies: Coeff,
// Payload and a pairs-mode SpCoeff.Val are sub-slices of data (capacity
// clipped, so appending to one never writes into its neighbour), and
// only what the wire does not hold verbatim — a seed frame's expanded
// Coeff, the sparse index list, a span-mode value list — is allocated.
// It accepts and rejects exactly the frames UnmarshalBinary does. The
// block is valid only while data is left unmodified, and it keeps all of
// data reachable: a caller whose buffer is reused, or who holds one
// block of a large buffer for long, must Clone it.
func (b *CodedBlock) UnmarshalBinaryAlias(data []byte) error {
	return b.parse(data, true, true)
}

// CheckWire validates a block frame exactly as UnmarshalBinary does and
// returns its object and level, without copying its sections or
// expanding a seed: the put path of a store, which keeps the frame's
// bytes and not the block.
func CheckWire(data []byte) (ObjectID, int, error) {
	var b CodedBlock
	if err := b.parse(data, true, false); err != nil {
		return 0, 0, err
	}
	return b.Object, b.Level, nil
}

// WireMeta returns the object and level a block frame's header names,
// checking the header only: what a store engine replaying its own
// records, validated when they were put, indexes each one by.
func WireMeta(data []byte) (ObjectID, int, error) {
	h, err := parseHead(data)
	return h.obj, h.level, err
}

// section returns p for an aliasing unmarshal (capacity clipped to its
// length) and a private copy otherwise.
func section(p []byte, alias bool) []byte {
	if alias {
		return p[:len(p):len(p)]
	}
	return append([]byte(nil), p...)
}

// wireHead is the fixed header every frame version starts with.
type wireHead struct {
	version             byte
	obj                 ObjectID
	level, nCoeff, nPay int
	size                int // header bytes, the object ID included
}

// parseHead parses and checks a frame's fixed header.
func parseHead(data []byte) (wireHead, error) {
	if len(data) < wireHeader {
		return wireHead{}, fmt.Errorf("%w: truncated at %d bytes", ErrWireFormat, len(data))
	}
	if string(data[:2]) != wireMagic {
		return wireHead{}, fmt.Errorf("%w: bad magic %q", ErrWireFormat, data[:2])
	}
	h := wireHead{version: data[2], size: wireHeader}
	fixed := data[3:]
	switch h.version {
	case wireVersionKey, wireVersionSpKey, wireVersionSeed:
		if len(data) < wireKeyedHeader {
			return wireHead{}, fmt.Errorf("%w: keyed frame truncated at %d bytes", ErrWireFormat, len(data))
		}
		h.obj = ObjectID(binary.BigEndian.Uint64(fixed))
		if h.obj == ZeroObject && h.version != wireVersionSeed {
			return wireHead{}, fmt.Errorf("%w: keyed frame carries the zero object (must use version %d/%d)",
				ErrWireFormat, wireVersion, wireVersionSpars)
		}
		if h.obj == AllObjects {
			return wireHead{}, fmt.Errorf("%w: keyed frame carries the reserved all-objects wildcard", ErrWireFormat)
		}
		h.size = wireKeyedHeader
		fixed = fixed[8:]
	case wireVersion, wireVersionSpars:
	default:
		return wireHead{}, fmt.Errorf("%w: unsupported version %d", ErrWireFormat, h.version)
	}
	h.level = int(binary.BigEndian.Uint16(fixed))
	h.nCoeff = int(binary.BigEndian.Uint32(fixed[2:]))
	h.nPay = int(binary.BigEndian.Uint32(fixed[6:]))
	if h.nCoeff < 0 || h.nPay < 0 {
		return wireHead{}, fmt.Errorf("%w: negative section size", ErrWireFormat)
	}
	return h, nil
}

// parse decodes data into b. alias keeps the sections as sub-slices of
// data; expand materializes a seed frame's coefficients (CheckWire, which
// only validates, leaves them nil).
func (b *CodedBlock) parse(data []byte, alias, expand bool) error {
	h, err := parseHead(data)
	if err != nil {
		return err
	}
	body := data[h.size:]
	var (
		coeff  []byte
		sp     *SparseCoeff
		seed   uint64
		seeded bool
	)
	switch h.version {
	case wireVersion, wireVersionKey:
		if len(body) != h.nCoeff+h.nPay {
			return fmt.Errorf("%w: length %d does not match header (%d coeff, %d payload)",
				ErrWireFormat, len(data), h.nCoeff, h.nPay)
		}
		coeff = section(body[:h.nCoeff], alias)
	case wireVersionSpars, wireVersionSpKey:
		if h.nCoeff > maxSparseCoeffLen {
			return fmt.Errorf("%w: sparse coefficient length %d exceeds maximum %d",
				ErrWireFormat, h.nCoeff, maxSparseCoeffLen)
		}
		if len(body) < 1+h.nPay {
			return fmt.Errorf("%w: truncated sparse coefficient section", ErrWireFormat)
		}
		if sp, err = unmarshalSparseCoeff(body[0], body[1:len(body)-h.nPay], h.nCoeff, alias); err != nil {
			return err
		}
	default: // wireVersionSeed
		var lo, hi int
		if lo, hi, seed, err = parseSeedSection(h, body); err != nil {
			return err
		}
		if expand {
			coeff = make([]byte, h.nCoeff)
			expandSeed(coeff[lo:hi], seed)
		}
		seeded = true
	}
	*b = CodedBlock{
		Object:  h.obj,
		Level:   h.level,
		Coeff:   coeff,
		SpCoeff: sp,
		Payload: section(body[len(body)-h.nPay:], alias),
		seed:    seed,
		seeded:  seeded,
	}
	return nil
}

// parseSeedSection validates a v5 frame's body (everything after the
// header) and returns its support and seed. The coefficient count is
// capped before anything is sized from it, and a frame marshal would have
// written dense is rejected.
func parseSeedSection(h wireHead, body []byte) (lo, hi int, seed uint64, err error) {
	if h.nCoeff > maxSeedCoeffLen {
		return 0, 0, 0, fmt.Errorf("%w: seed frame claims %d coefficients, maximum %d",
			ErrWireFormat, h.nCoeff, maxSeedCoeffLen)
	}
	if wireSeedHeader >= headerSize(h.obj)+h.nCoeff {
		return 0, 0, 0, fmt.Errorf("%w: non-canonical seed frame (%d coefficients travel smaller dense)",
			ErrWireFormat, h.nCoeff)
	}
	if len(body) != wireSeedHeader-wireKeyedHeader+h.nPay {
		return 0, 0, 0, fmt.Errorf("%w: seed frame length %d does not match header (%d payload)",
			ErrWireFormat, h.size+len(body), h.nPay)
	}
	if body[0] != coeffKindSeed {
		return 0, 0, 0, fmt.Errorf("%w: unsupported coefficient kind %d", ErrWireFormat, body[0])
	}
	lo, hi = int(binary.BigEndian.Uint32(body[1:])), int(binary.BigEndian.Uint32(body[5:]))
	if lo < 0 || lo >= hi || hi > h.nCoeff {
		return 0, 0, 0, fmt.Errorf("%w: seed support [%d, %d) outside coefficient range [0, %d)",
			ErrWireFormat, lo, hi, h.nCoeff)
	}
	return lo, hi, binary.BigEndian.Uint64(body[9:]), nil
}

// unmarshalSparseCoeff parses and validates one v3 coefficient section.
// sect is exactly the section body (mode byte and payload stripped);
// with alias set, a pairs-mode value list stays a sub-slice of it.
func unmarshalSparseCoeff(mode byte, sect []byte, nCoeff int, alias bool) (*SparseCoeff, error) {
	switch mode {
	case wireModePairs:
		if len(sect) < 4 {
			return nil, fmt.Errorf("%w: pairs section truncated at %d bytes", ErrWireFormat, len(sect))
		}
		nnz := int(binary.BigEndian.Uint32(sect))
		// Clamp the claimed count by the bytes actually present before any
		// allocation — the splitBlockList pattern one layer up.
		if nnz < 0 || nnz > (len(sect)-4)/5 || len(sect) != 4+5*nnz {
			return nil, fmt.Errorf("%w: pairs section claims %d entries in %d bytes", ErrWireFormat, nnz, len(sect))
		}
		s := &SparseCoeff{Len: nCoeff}
		if nnz > 0 {
			s.Idx = make([]uint32, nnz)
			s.Val = section(sect[4+4*nnz:], alias)
			prev := -1
			for i := range s.Idx {
				j := binary.BigEndian.Uint32(sect[4+4*i:])
				if int(j) <= prev || int(j) >= nCoeff {
					return nil, fmt.Errorf("%w: sparse index %d (after %d) outside strictly increasing [0, %d)",
						ErrWireFormat, j, prev, nCoeff)
				}
				if s.Val[i] == 0 {
					return nil, fmt.Errorf("%w: zero value at sparse index %d", ErrWireFormat, j)
				}
				s.Idx[i] = j
				prev = int(j)
			}
			// Canonical-mode check: marshal would have picked span had it
			// been cheaper, so such a pairs frame cannot round-trip.
			if lo, hi := s.Support(); 8+(hi-lo) < 4+5*nnz {
				return nil, fmt.Errorf("%w: non-canonical pairs encoding (span is smaller)", ErrWireFormat)
			}
		}
		return s, nil
	case wireModeSpan:
		if len(sect) < 8 {
			return nil, fmt.Errorf("%w: span section truncated at %d bytes", ErrWireFormat, len(sect))
		}
		start := int(binary.BigEndian.Uint32(sect))
		width := int(binary.BigEndian.Uint32(sect[4:]))
		if width < 1 || len(sect) != 8+width {
			return nil, fmt.Errorf("%w: span section claims width %d in %d bytes", ErrWireFormat, width, len(sect))
		}
		if start < 0 || width > nCoeff || start > nCoeff-width {
			return nil, fmt.Errorf("%w: span [%d, %d) outside coefficient range [0, %d)",
				ErrWireFormat, start, start+width, nCoeff)
		}
		raw := sect[8:]
		if raw[0] == 0 || raw[width-1] == 0 {
			return nil, fmt.Errorf("%w: non-canonical span encoding (zero padding at edge)", ErrWireFormat)
		}
		nnz := 0
		for _, v := range raw {
			if v != 0 {
				nnz++
			}
		}
		if !(8+width < 4+5*nnz) {
			return nil, fmt.Errorf("%w: non-canonical span encoding (pairs is smaller)", ErrWireFormat)
		}
		s := &SparseCoeff{
			Len: nCoeff,
			Idx: make([]uint32, 0, nnz),
			Val: make([]byte, 0, nnz),
		}
		for off, v := range raw {
			if v != 0 {
				s.Idx = append(s.Idx, uint32(start+off))
				s.Val = append(s.Val, v)
			}
		}
		return s, nil
	default:
		return nil, fmt.Errorf("%w: unknown sparse coefficient mode %d", ErrWireFormat, mode)
	}
}
