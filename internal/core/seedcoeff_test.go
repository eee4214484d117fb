package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// TestSeedStreamPinned fixes the coefficient stream: a seed frame written
// today must expand to the same coefficients in every later build, so
// these bytes may never change. Seed 0's first word is splitmix64's
// published first output; seed 6's first word holds a zero byte, which the
// stream skips.
func TestSeedStreamPinned(t *testing.T) {
	for seed, want := range map[uint64]string{
		0:          "afcd1d7b39a820e2f465b9a16a9e786e4f450980185dc406",
		1:          "c15c0289ec2d0a9167ec8e65a18debbe5e5532fbeea293f8",
		6:          "e0efadd9a564bd99df5139b29d417246",
		0xDEADBEEF: "9bebc9680fb9df4a2209a141316a58de1dfc1c8e2fbc1f02",
	} {
		got := make([]byte, len(want)/2)
		expandSeed(got, seed)
		if hex.EncodeToString(got) != want {
			t.Errorf("seed %#x: stream %x, want %s", seed, got, want)
		}
	}
}

// TestSeedStreamPrefixes pins the stream's two properties the wire leans
// on: every byte is nonzero (so the support is the first and last nonzero
// columns), and a shorter expansion is a prefix of a longer one — across
// the word boundaries and skipped zero bytes of both the word-at-a-time
// and the byte paths. seedMatches agrees with expandSeed on every length
// and catches any one changed byte.
func TestSeedStreamPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		seed := rng.Uint64()
		full := make([]byte, 300)
		expandSeed(full, seed)
		if bytes.IndexByte(full, 0) >= 0 {
			t.Fatalf("seed %#x: stream holds a zero byte", seed)
		}
		n := rng.Intn(len(full) + 1)
		part := make([]byte, n)
		expandSeed(part, seed)
		if !bytes.Equal(part, full[:n]) {
			t.Fatalf("seed %#x: %d-byte expansion is not a prefix of the 300-byte one", seed, n)
		}
		if !seedMatches(full[:n], seed) {
			t.Fatalf("seed %#x: seedMatches rejects its own %d-byte expansion", seed, n)
		}
		if n > 0 {
			part[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
			if seedMatches(part, seed) {
				t.Fatalf("seed %#x: seedMatches accepts a changed %d-byte expansion", seed, n)
			}
		}
	}
}

// seededBlock encodes one keyed PLC block over levels of the given sizes
// with payloadLen-byte sources.
func seededBlock(t *testing.T, sizes []int, payloadLen, level int) *CodedBlock {
	t.Helper()
	enc := testEncoder(t, PLC, sizes, payloadLen)
	b, err := enc.Encode(rand.New(rand.NewSource(9)), level)
	if err != nil {
		t.Fatal(err)
	}
	b.Object = NamedObject("seeded")
	return b
}

// TestSeedFrameSize pins the point of the seed frame: a 512 × 4 KiB
// level-7 keyed block — the publish-recover geometry — marshals to the
// 38-byte v5 header plus its payload, 4,134 bytes instead of the 4,629
// of its v2 frame, while a 16-source block, whose dense vector is smaller
// than a seed, keeps its v2 frame byte for byte.
func TestSeedFrameSize(t *testing.T) {
	sizes := make([]int, 8)
	for i := range sizes {
		sizes[i] = 64
	}
	big := seededBlock(t, sizes, 4096, 7)
	wire, err := big.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if wire[2] != wireVersionSeed || len(wire) != 4134 || big.WireSize() != len(wire) {
		t.Fatalf("512 × 4 KiB block: version %d, %d bytes (WireSize %d), want v5 of 4134", wire[2], len(wire), big.WireSize())
	}
	var back CodedBlock
	if err := back.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Coeff, big.Coeff) || !bytes.Equal(back.Payload, big.Payload) || back.Object != big.Object || back.Level != 7 {
		t.Fatal("v5 round trip changed the block")
	}

	small := seededBlock(t, []int{4, 12}, 32, 1)
	wire, err = small.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dense := &CodedBlock{Object: small.Object, Level: small.Level, Coeff: small.Coeff, Payload: small.Payload}
	want, err := dense.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, want) || wire[2] != wireVersionKey || len(wire) != wireKeyedHeader+16+32 {
		t.Fatalf("16-source block: version %d, %d bytes; want its v2 frame of %d", wire[2], len(wire), len(want))
	}
}

// TestCloneKeepsSeed pins that a clone still travels as the seed frame.
func TestCloneKeepsSeed(t *testing.T) {
	b := seededBlock(t, []int{32, 32}, 8, 1)
	want, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Clone().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want[2] != wireVersionSeed || !bytes.Equal(got, want) {
		t.Fatalf("clone marshals as v%d, %d bytes; want the original's v5 frame", got[2], len(got))
	}
}

// TestChangedCoeffMarshalsDense pins the seed check: once a block's Coeff
// is no longer its seed's expansion — a coefficient changed inside the
// support, one zeroed at its edge, one set outside it — the block
// marshals as the v2 frame of what it now holds.
func TestChangedCoeffMarshalsDense(t *testing.T) {
	for name, change := range map[string]func(c []byte){
		"inside": func(c []byte) { c[10] ^= 0x5A },
		"edge":   func(c []byte) { c[0] = 0 },
		"beyond": func(c []byte) { c[40] = 7 },
	} {
		b := seededBlock(t, []int{32, 32}, 8, 0) // support [0, 32) of 64
		change(b.Coeff)
		wire, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if wire[2] != wireVersionKey || len(wire) != b.WireSize() {
			t.Fatalf("%s: changed block marshals as v%d (%d bytes, WireSize %d), want v2", name, wire[2], len(wire), b.WireSize())
		}
		var back CodedBlock
		if err := back.UnmarshalBinary(wire); err != nil || !bytes.Equal(back.Coeff, b.Coeff) {
			t.Fatalf("%s: dense round trip: %v", name, err)
		}
	}
}

// seedFrame hand-assembles a v5 frame so tests can build the shapes
// MarshalBinary refuses to emit. nCoeff is the claimed coefficient
// count, typed as its wire field so a claim past int32 builds on 32-bit
// platforms too.
func seedFrame(obj ObjectID, nCoeff uint32, nPay int, kind byte, lo, hi uint32, seed uint64) []byte {
	out := []byte{'P', 'B', wireVersionSeed}
	out = binary.BigEndian.AppendUint64(out, uint64(obj))
	out = binary.BigEndian.AppendUint16(out, 3)
	out = binary.BigEndian.AppendUint32(out, nCoeff)
	out = binary.BigEndian.AppendUint32(out, uint32(nPay))
	out = append(out, kind)
	out = binary.BigEndian.AppendUint32(out, lo)
	out = binary.BigEndian.AppendUint32(out, hi)
	out = binary.BigEndian.AppendUint64(out, seed)
	return append(out, make([]byte, nPay)...)
}

// TestSeedFrameRejectsHostile pins the v5 parser: a frame claiming more
// than maxSeedCoeffLen coefficients is refused before anything is sized
// from the claim, and so is every frame marshal would not have written.
// The zero object is a valid v5 object; the wildcard is not.
func TestSeedFrameRejectsHostile(t *testing.T) {
	obj := NamedObject("hostile")
	good := seedFrame(ZeroObject, 64, 2, coeffKindSeed, 3, 40, 77)
	var b CodedBlock
	if err := b.UnmarshalBinary(good); err != nil {
		t.Fatalf("well-formed zero-object v5 frame rejected: %v", err)
	}
	if again, err := b.MarshalBinary(); err != nil || !bytes.Equal(again, good) {
		t.Fatalf("zero-object v5 frame re-marshals as %x (%v)", again, err)
	}
	cases := map[string][]byte{
		"claims 4G coefficients":  seedFrame(obj, 1<<32-1, 0, coeffKindSeed, 0, 1, 1),
		"claims one over the cap": seedFrame(obj, maxSeedCoeffLen+1, 0, coeffKindSeed, 0, 1, 1),
		"dense is smaller":        seedFrame(obj, 16, 0, coeffKindSeed, 0, 16, 1),
		"dense is as small":       seedFrame(obj, 17, 0, coeffKindSeed, 0, 17, 1),
		"zero object, dense same": seedFrame(ZeroObject, 25, 0, coeffKindSeed, 0, 25, 1),
		"empty support":           seedFrame(obj, 64, 0, coeffKindSeed, 9, 9, 1),
		"inverted support":        seedFrame(obj, 64, 0, coeffKindSeed, 10, 9, 1),
		"support past the end":    seedFrame(obj, 64, 0, coeffKindSeed, 0, 65, 1),
		"dense kind":              seedFrame(obj, 64, 0, 0, 0, 64, 1),
		"sparse kind":             seedFrame(obj, 64, 0, 1, 0, 64, 1),
		"wildcard object":         seedFrame(AllObjects, 64, 0, coeffKindSeed, 0, 64, 1),
		"payload short":           seedFrame(obj, 64, 4, coeffKindSeed, 0, 64, 1)[:wireSeedHeader+3],
		"payload long":            append(seedFrame(obj, 64, 4, coeffKindSeed, 0, 64, 1), 0),
		"truncated seed":          seedFrame(obj, 64, 0, coeffKindSeed, 0, 64, 1)[:wireSeedHeader-1],
	}
	for name, data := range cases {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := b.UnmarshalBinary(data); !errors.Is(err, ErrWireFormat) {
				t.Errorf("%s: err = %v, want ErrWireFormat", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
			t.Errorf("%s: rejection allocated %d bytes, want the error path only", name, per)
		}
		if _, _, err := CheckWire(data); !errors.Is(err, ErrWireFormat) {
			t.Errorf("%s: CheckWire err = %v, want ErrWireFormat", name, err)
		}
	}
}

// TestCheckWireCopiesNothing pins the store's put-path validation: a
// dense or seed frame is checked in place — no section copied, no seed
// expanded — and yields the object and level UnmarshalBinary would.
func TestCheckWireCopiesNothing(t *testing.T) {
	seeded := seededBlock(t, []int{64, 64}, 1024, 1)
	dense := &CodedBlock{Object: seeded.Object, Level: 1, Coeff: seeded.Coeff, Payload: seeded.Payload}
	for _, b := range []*CodedBlock{seeded, dense} {
		wire, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var obj ObjectID
		var level int
		if allocs := testing.AllocsPerRun(10, func() { obj, level, err = CheckWire(wire) }); allocs != 0 {
			t.Errorf("v%d: CheckWire allocates %.0f times, want 0", wire[2], allocs)
		}
		if err != nil || obj != b.Object || level != b.Level {
			t.Errorf("v%d: CheckWire = %v, %d, %v", wire[2], obj, level, err)
		}
	}
}

// BenchmarkSeedExpandN512 is the seed expansion of one publish-recover
// block (512 coefficients): what every v5 unmarshal adds, and, as the
// match check, every v5 marshal.
func BenchmarkSeedExpandN512(b *testing.B) {
	coeff := make([]byte, 512)
	b.SetBytes(int64(len(coeff)))
	for i := 0; i < b.N; i++ {
		expandSeed(coeff, uint64(i))
	}
}

// BenchmarkSeedMatchN512 is the check MarshalBinary runs before it writes
// a v5 frame.
func BenchmarkSeedMatchN512(b *testing.B) {
	coeff := make([]byte, 512)
	expandSeed(coeff, 42)
	b.SetBytes(int64(len(coeff)))
	for i := 0; i < b.N; i++ {
		if !seedMatches(coeff, 42) {
			b.Fatal("own expansion rejected")
		}
	}
}
