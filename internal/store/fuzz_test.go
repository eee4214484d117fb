package store

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// Selectors of FuzzStoreFrames: the first input byte (mod storeFrameKinds)
// picks the decoder the rest of the input is fed to.
const (
	fuzzGetBody = iota
	fuzzStats
	fuzzBlockList
	fuzzSegmentList
	fuzzDeleteBody
	fuzzErrFrame
	storeFrameKinds
)

// FuzzStoreFrames feeds hostile bodies to every store frame decoder. No
// decoder may panic, and every body one accepts must come back byte for
// byte from its encoder: each value has exactly one spelling on the
// wire. The seeds are current bodies of every kind plus the layouts the
// store no longer speaks (the 2-byte get, stat bodies v1 and v2), which
// must stay rejected.
func FuzzStoreFrames(f *testing.F) {
	add := func(kind byte, body []byte) { f.Add(append([]byte{kind}, body...)) }

	add(fuzzGetBody, encodeGetBody(core.NamedObject("fuzz"), 2))
	add(fuzzGetBody, encodeGetBody(core.ZeroObject, -1))
	add(fuzzGetBody, []byte{0xFF, 0xFF}) // pre-namespace all-objects get
	add(fuzzGetBody, encodeGetBody(core.AllObjects, -1))

	for _, st := range []Stats{{}, {
		Blocks:   3,
		Bytes:    90,
		PerLevel: []LevelCount{{Level: 0, Count: 1, Bytes: 30}, {Level: 2, Count: 2, Bytes: 60}},
		PerObject: []ObjectStats{
			{Object: core.ZeroObject, PerLevel: []LevelCount{{Level: 0, Count: 1, Bytes: 30}}},
			{Object: core.NamedObject("fuzz"), PerLevel: []LevelCount{{Level: 2, Count: 2, Bytes: 60}}},
		},
	}} {
		body, err := encodeStats(st)
		if err != nil {
			f.Fatal(err)
		}
		add(fuzzStats, body)
	}
	add(fuzzStats, statsV1Body())
	add(fuzzStats, statsV2Body())

	dense, err := (&core.CodedBlock{Object: core.NamedObject("fuzz"), Level: 1, Coeff: []byte{1, 0, 2}, Payload: []byte{9, 8}}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	add(fuzzBlockList, wrapBlockList())
	add(fuzzBlockList, wrapBlockList(dense, sparseFrame(8, []uint32{1, 6}, []byte{7, 9})))

	segs, err := encodeSegmentList([]SegmentInfo{
		{ID: 1, Records: 4, Bytes: 512, Created: time.Unix(0, 1e9)},
		{ID: 2, Records: 1, Bytes: 128, Created: time.Unix(0, 2e9), Active: true},
	})
	if err != nil {
		f.Fatal(err)
	}
	add(fuzzSegmentList, segs)
	add(fuzzDeleteBody, encodeDeleteBody(core.NamedObject("fuzz")))
	add(fuzzErrFrame, append([]byte{errCodeFull}, "store full"...))
	add(fuzzErrFrame, nil)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		switch data[0] % storeFrameKinds {
		case fuzzGetBody:
			if obj, lvl, err := decodeGetBody(body); err == nil {
				sameBody(t, "get", body, encodeGetBody(obj, lvl), nil)
			}
		case fuzzStats:
			if st, err := decodeStats(body); err == nil {
				re, err := encodeStats(st)
				sameBody(t, "stats", body, re, err)
			}
		case fuzzBlockList:
			list, err := decodeBlockList(body)
			if err != nil {
				return
			}
			wires := make([][]byte, len(list))
			for i := range list {
				wires[i] = list[i].wire
			}
			var frame bytes.Buffer
			if err := writeBlockList(&frame, wires); err != nil {
				t.Fatalf("block list: re-encode: %v", err)
			}
			_, re, err := readFrame(&frame, DefaultMaxFrame)
			sameBody(t, "block list", body, re, err)
		case fuzzSegmentList:
			if segs, err := decodeSegmentList(body); err == nil {
				re, err := encodeSegmentList(segs)
				sameBody(t, "segment list", body, re, err)
			}
		case fuzzDeleteBody:
			if obj, err := decodeDeleteBody(body); err == nil {
				sameBody(t, "delete", body, encodeDeleteBody(obj), nil)
			}
		case fuzzErrFrame:
			err := decodeErrFrame(body)
			code := byte(errCodeBad)
			switch {
			case errors.Is(err, ErrCorruptFrame):
				code = errCodeCorrupt
			case errors.Is(err, ErrStoreFull):
				code = errCodeFull
			case errors.Is(err, ErrStoreUnavailable):
				code = errCodeUnavailable
			case !errors.Is(err, ErrBadRequest):
				t.Fatalf("error frame decoded to an untyped error %v", err)
			}
			if len(body) == 0 || body[0] != code {
				return // unknown codes read as bad requests; nothing to re-encode
			}
			var frame bytes.Buffer
			writeErrFrame(&frame, code, string(body[1:]))
			_, re, err := readFrame(&frame, DefaultMaxFrame)
			sameBody(t, "error frame", body, re, err)
		}
	})
}

// sameBody fails the fuzz case when an accepted body did not re-encode
// to itself.
func sameBody(t *testing.T, kind string, body, re []byte, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: accepted body %x does not re-encode: %v", kind, body, err)
	}
	if !bytes.Equal(re, body) {
		t.Fatalf("%s: body %x re-encodes to %x", kind, body, re)
	}
}
