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
//	version 1 | 2 | 3 | 4  1 byte
//	object  uint64       big endian  (versions 2 and 4 only)
//	level   uint16       big endian
//	nCoeff  uint32       big endian  (dense coefficient length)
//	nPay    uint32       big endian
//	coeff   version-dependent, see below
//	payload nPay bytes
//
// Versions 2 and 4 are the object-keyed forms of 1 and 3: they insert
// the 8-byte ObjectID immediately after the version byte and are
// otherwise identical. A block with the zero (legacy) object always
// marshals as v1/v3, bit-identical to prior releases, and key-less
// v1/v3 frames decode as the zero object — so old and new daemons
// interoperate on the single-object workload, and dedup by marshaled
// bytes keeps working across the version bump. A v2/v4 frame carrying
// the zero object is rejected as non-canonical for the same reason.
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
// The encoding is canonical: a sparse block marshals in whichever mode
// costs fewer bytes (pairs: 4+5·nnz, span: 8+width; ties go to pairs),
// and UnmarshalBinary rejects non-canonical v3 frames — wrong mode for
// the structure, zero pair values, or span padding at the edges — so
// every accepted frame re-marshals bit-identically. Dense blocks always
// use version 1, unchanged from prior releases; which representation a
// block uses survives a marshal round-trip.
const (
	wireMagic        = "PB"
	wireVersion      = 1
	wireVersionKey   = 2
	wireVersionSpars = 3
	wireVersionSpKey = 4
	wireHeader       = 2 + 1 + 2 + 4 + 4
	// wireKeyedHeader is wireHeader plus the 8-byte object ID that v2/v4
	// frames insert after the version byte.
	wireKeyedHeader = wireHeader + 8

	wireModePairs = 0
	wireModeSpan  = 1

	// maxSparseCoeffLen bounds the dense length a v3 frame may claim.
	// Unlike v1, where nCoeff is implicitly bounded by the bytes actually
	// present, a sparse frame declares a dense length it never ships — a
	// hostile frame could claim 4 GiB and blow up the first densification.
	maxSparseCoeffLen = 1 << 24
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

// wireHeaderSize returns the header length the block marshals with:
// keyed frames carry the 8-byte object ID, legacy zero-object frames
// do not.
func (b *CodedBlock) wireHeaderSize() int {
	if b.Object != ZeroObject {
		return wireKeyedHeader
	}
	return wireHeader
}

// WireSize returns the exact MarshalBinary output size in bytes.
func (b *CodedBlock) WireSize() int {
	if b.SpCoeff != nil {
		return b.wireHeaderSize() + sparseWireCost(b.SpCoeff) + len(b.Payload)
	}
	return b.wireHeaderSize() + len(b.Coeff) + len(b.Payload)
}

// MarshalBinary encodes the block in the wire format: version 1/3 for
// zero-object blocks (bit-identical to prior releases), version 2/4 —
// same layout plus the 8-byte object ID — for keyed ones.
func (b *CodedBlock) MarshalBinary() ([]byte, error) {
	if b.Level < 0 || b.Level > 0xFFFF {
		return nil, fmt.Errorf("core: level %d does not fit the wire format", b.Level)
	}
	if b.Object == AllObjects {
		return nil, fmt.Errorf("core: block carries the reserved all-objects wildcard %s", b.Object)
	}
	s := b.SpCoeff
	if s == nil {
		out := make([]byte, 0, b.wireHeaderSize()+len(b.Coeff)+len(b.Payload))
		out = append(out, wireMagic...)
		if b.Object != ZeroObject {
			out = append(out, wireVersionKey)
			out = binary.BigEndian.AppendUint64(out, uint64(b.Object))
		} else {
			out = append(out, wireVersion)
		}
		out = binary.BigEndian.AppendUint16(out, uint16(b.Level))
		out = binary.BigEndian.AppendUint32(out, uint32(len(b.Coeff)))
		out = binary.BigEndian.AppendUint32(out, uint32(len(b.Payload)))
		out = append(out, b.Coeff...)
		out = append(out, b.Payload...)
		return out, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Len > maxSparseCoeffLen {
		return nil, fmt.Errorf("core: sparse coefficient length %d exceeds wire maximum %d", s.Len, maxSparseCoeffLen)
	}
	out := make([]byte, 0, b.wireHeaderSize()+sparseWireCost(s)+len(b.Payload))
	out = append(out, wireMagic...)
	if b.Object != ZeroObject {
		out = append(out, wireVersionSpKey)
		out = binary.BigEndian.AppendUint64(out, uint64(b.Object))
	} else {
		out = append(out, wireVersionSpars)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(b.Level))
	out = binary.BigEndian.AppendUint32(out, uint32(s.Len))
	out = binary.BigEndian.AppendUint32(out, uint32(len(b.Payload)))
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
// sparse ones; the keyed versions (2/4) carry the ObjectID, the legacy
// ones decode as the zero object. Hostile frames — inflated index
// counts, out-of-range or duplicate indices, non-canonical encodings
// (including a keyed frame carrying a reserved object) — are rejected
// with ErrWireFormat before any structure-sized allocation happens.
func (b *CodedBlock) UnmarshalBinary(data []byte) error {
	return b.unmarshal(data, false)
}

// UnmarshalBinaryAlias is UnmarshalBinary without the copies: Coeff,
// Payload and a pairs-mode SpCoeff.Val are sub-slices of data (capacity
// clipped, so appending to one never writes into its neighbour), and
// only what the wire does not hold verbatim — the sparse index list, a
// span-mode value list — is allocated. It accepts and rejects exactly
// the frames UnmarshalBinary does. The block is valid only while data is
// left unmodified, and it keeps all of data reachable: a caller whose
// buffer is reused, or who holds one block of a large buffer for long,
// must Clone it.
func (b *CodedBlock) UnmarshalBinaryAlias(data []byte) error {
	return b.unmarshal(data, true)
}

// section returns p for an aliasing unmarshal (capacity clipped to its
// length) and a private copy otherwise.
func section(p []byte, alias bool) []byte {
	if alias {
		return p[:len(p):len(p)]
	}
	return append([]byte(nil), p...)
}

func (b *CodedBlock) unmarshal(data []byte, alias bool) error {
	if len(data) < wireHeader {
		return fmt.Errorf("%w: truncated at %d bytes", ErrWireFormat, len(data))
	}
	if string(data[:2]) != wireMagic {
		return fmt.Errorf("%w: bad magic %q", ErrWireFormat, data[:2])
	}
	version := data[2]
	obj := ZeroObject
	hdr := wireHeader
	fixed := data[3:]
	switch version {
	case wireVersionKey, wireVersionSpKey:
		if len(data) < wireKeyedHeader {
			return fmt.Errorf("%w: keyed frame truncated at %d bytes", ErrWireFormat, len(data))
		}
		obj = ObjectID(binary.BigEndian.Uint64(fixed))
		if obj == ZeroObject {
			return fmt.Errorf("%w: keyed frame carries the zero object (must use version %d/%d)",
				ErrWireFormat, wireVersion, wireVersionSpars)
		}
		if obj == AllObjects {
			return fmt.Errorf("%w: keyed frame carries the reserved all-objects wildcard", ErrWireFormat)
		}
		hdr = wireKeyedHeader
		fixed = fixed[8:]
	case wireVersion, wireVersionSpars:
	default:
		return fmt.Errorf("%w: unsupported version %d", ErrWireFormat, version)
	}
	level := int(binary.BigEndian.Uint16(fixed))
	nCoeff := int(binary.BigEndian.Uint32(fixed[2:]))
	nPay := int(binary.BigEndian.Uint32(fixed[6:]))
	if nCoeff < 0 || nPay < 0 {
		return fmt.Errorf("%w: negative section size", ErrWireFormat)
	}
	switch version {
	case wireVersion, wireVersionKey:
		if len(data) != hdr+nCoeff+nPay {
			return fmt.Errorf("%w: length %d does not match header (%d coeff, %d payload)",
				ErrWireFormat, len(data), nCoeff, nPay)
		}
		b.Object = obj
		b.Level = level
		b.Coeff = section(data[hdr:hdr+nCoeff], alias)
		b.SpCoeff = nil
		b.Payload = section(data[hdr+nCoeff:], alias)
		return nil
	default: // wireVersionSpars, wireVersionSpKey
		if nCoeff > maxSparseCoeffLen {
			return fmt.Errorf("%w: sparse coefficient length %d exceeds maximum %d",
				ErrWireFormat, nCoeff, maxSparseCoeffLen)
		}
		body := data[hdr:]
		if len(body) < 1+nPay {
			return fmt.Errorf("%w: truncated sparse coefficient section", ErrWireFormat)
		}
		mode := body[0]
		sect := body[1 : len(body)-nPay]
		s, err := unmarshalSparseCoeff(mode, sect, nCoeff, alias)
		if err != nil {
			return err
		}
		b.Object = obj
		b.Level = level
		b.Coeff = nil
		b.SpCoeff = s
		b.Payload = section(body[len(body)-nPay:], alias)
		return nil
	}
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
		// allocation — the decodeBlockList pattern one layer up.
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
