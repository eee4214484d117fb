package collect

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

func mustLevels(t testing.TB, sizes ...int) *core.Levels {
	t.Helper()
	l, err := core.NewLevels(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustDecoder(t testing.TB, scheme core.Scheme, l *core.Levels, payloadLen int) *core.Decoder {
	t.Helper()
	dec, err := core.NewDecoder(scheme, l, payloadLen)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// makeBlocks encodes m blocks of random payloadLen-byte sources.
func makeBlocks(t testing.TB, scheme core.Scheme, l *core.Levels, m, payloadLen int, seed int64) []*core.CodedBlock {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sources [][]byte
	if payloadLen > 0 {
		sources = make([][]byte, l.Total())
		for i := range sources {
			sources[i] = make([]byte, payloadLen)
			rng.Read(sources[i])
		}
	}
	enc, err := core.NewEncoder(scheme, l, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.NewUniformDistribution(l.Count()), m)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func TestRunValidation(t *testing.T) {
	l := mustLevels(t, 2, 2)
	dec := mustDecoder(t, core.PLC, l, 0)
	if _, err := Run(nil, dec, Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Run(Slice(nil), nil, Options{}); err == nil {
		t.Error("nil decoder accepted")
	}
	if _, err := Run(Slice(nil), dec, Options{TargetLevels: -1}); err == nil {
		t.Error("negative target accepted")
	}
}

func TestRunDecodesEverything(t *testing.T) {
	l := mustLevels(t, 3, 3, 3)
	blocks := makeBlocks(t, core.PLC, l, 40, 0, 2)
	dec := mustDecoder(t, core.PLC, l, 0)
	res, err := Run(Shuffle(rand.New(rand.NewSource(3)), blocks), dec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.DecodedLevels != 3 || res.DecodedBlocks != 9 {
		t.Errorf("result %+v, want complete decode", res)
	}
	if !dec.Complete() {
		t.Error("decoder not complete")
	}
	// Early stop: the run must not consume all 40 blocks once rank 9 is
	// reached.
	if res.Processed == len(blocks) && res.Innovative < res.Processed {
		t.Errorf("run did not stop at completion: processed %d", res.Processed)
	}
	if res.Innovative != 9 {
		t.Errorf("innovative = %d, want 9", res.Innovative)
	}
}

func TestRunStopsAtTargetLevels(t *testing.T) {
	// Small level 0 inside a large level 1, so level 0 decodes long before
	// the full system and the early stop is observable.
	l := mustLevels(t, 2, 20)
	blocks := makeBlocks(t, core.PLC, l, 80, 0, 4)
	res, err := Run(Shuffle(rand.New(rand.NewSource(5)), blocks), mustDecoder(t, core.PLC, l, 0), Options{TargetLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodedLevels < 1 {
		t.Errorf("target not reached: %+v", res)
	}
	if res.Processed >= len(blocks) {
		t.Errorf("run consumed every cache without stopping early: %+v", res)
	}
	if res.Complete {
		t.Errorf("run kept collecting past its target: %+v", res)
	}
}

// TestRunCurveRecording checks the checkpoints against a decoder fed the
// same blocks by hand, including the checkpoints past the point where the
// run stopped complete.
func TestRunCurveRecording(t *testing.T) {
	l := mustLevels(t, 4, 4)
	blocks := makeBlocks(t, core.PLC, l, 20, 0, 8)
	ms := []int{0, 2, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 40}
	res, err := Run(Slice(blocks), mustDecoder(t, core.PLC, l, 0), Options{Checkpoints: ms})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("20 blocks did not decode 8 sources: %+v", res)
	}
	ref := mustDecoder(t, core.PLC, l, 0)
	want := make([]int, len(ms))
	added := 0
	for i, m := range ms {
		for ; added < m && added < len(blocks) && !ref.Complete(); added++ {
			if _, err := ref.Add(blocks[added]); err != nil {
				t.Fatal(err)
			}
		}
		want[i] = ref.DecodedLevels()
	}
	if !reflect.DeepEqual(res.LevelsAt, want) {
		t.Errorf("levels at %v = %v, want %v", ms, res.LevelsAt, want)
	}
}

func TestRunEmptyCaches(t *testing.T) {
	l := mustLevels(t, 2, 2)
	res, err := Run(Shuffle(rand.New(rand.NewSource(10)), nil), mustDecoder(t, core.PLC, l, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 0 || res.DecodedLevels != 0 || res.Complete {
		t.Errorf("empty collection produced %+v", res)
	}
}

// TestRunSkipsRejectedBlocks pins the reject path: a block of another
// object and a block with a short payload, mixed into a good stream, are
// skipped and reported, and the decode equals the clean stream's.
func TestRunSkipsRejectedBlocks(t *testing.T) {
	const payloadLen = 8
	l := mustLevels(t, 3, 5)
	good := makeBlocks(t, core.PLC, l, 24, payloadLen, 12)

	alien := good[3].Clone()
	alien.Object = core.NamedObject("another object")
	short := good[4].Clone()
	short.Payload = short.Payload[:payloadLen/2]
	mixed := append([]*core.CodedBlock{good[0], alien}, good[1:5]...)
	mixed = append(mixed, short)
	mixed = append(mixed, good[5:]...)

	clean := mustDecoder(t, core.PLC, l, payloadLen)
	want, err := Run(Slice(good), clean, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec := mustDecoder(t, core.PLC, l, payloadLen)
	got, err := Run(Slice(mixed), dec, Options{})
	if err != nil {
		t.Fatalf("rejected blocks ended the run: %v", err)
	}
	if len(got.Rejected) != 2 {
		t.Fatalf("rejected %d draws, want 2: %+v", len(got.Rejected), got.Rejected)
	}
	if r := got.Rejected[0]; r.Draw != 1 || !errors.Is(r.Err, core.ErrObjectMismatch) {
		t.Errorf("first reject %+v, want draw 1 with ErrObjectMismatch", r)
	}
	if r := got.Rejected[1]; r.Draw != 6 || r.Err == nil {
		t.Errorf("second reject %+v, want draw 6 with a reason", r)
	}
	if got.DecodedLevels != want.DecodedLevels || got.DecodedBlocks != want.DecodedBlocks ||
		got.Processed != want.Processed || got.Complete != want.Complete {
		t.Errorf("mixed run %+v, clean run %+v", got, want)
	}
	if !reflect.DeepEqual(dec.Sources(), clean.Sources()) {
		t.Error("decoded sources differ from the clean run's")
	}
}

// TestRunSourceErrorsAreRejects: a source that cannot produce a draw is
// skipped like a refused block, and io.EOF ends the run.
func TestRunSourceErrorsAreRejects(t *testing.T) {
	l := mustLevels(t, 2, 2)
	blocks := makeBlocks(t, core.PLC, l, 12, 0, 13)
	unreadable := errors.New("unreadable")
	inner, draw := Slice(blocks), 0
	src := func() (*core.CodedBlock, error) {
		if draw++; draw == 2 {
			return nil, unreadable
		}
		return inner()
	}
	res, err := Run(src, mustDecoder(t, core.PLC, l, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != 1 || res.Rejected[0].Draw != 1 || res.Rejected[0].Err != unreadable {
		t.Errorf("rejects %+v, want draw 1 unreadable", res.Rejected)
	}
	if !res.Complete {
		t.Errorf("run did not recover past the failed draw: %+v", res)
	}
}

// TestShuffleDrawsOnePerm pins the shuffle's RNG use: exactly one
// rng.Perm over the blocks, taken when the source is made.
func TestShuffleDrawsOnePerm(t *testing.T) {
	l := mustLevels(t, 2, 2)
	blocks := makeBlocks(t, core.PLC, l, 10, 0, 14)
	rng, ref := rand.New(rand.NewSource(15)), rand.New(rand.NewSource(15))
	src := Shuffle(rng, blocks)
	perm := ref.Perm(len(blocks))
	if rng.Int63() != ref.Int63() {
		t.Fatal("Shuffle drew more or less than one Perm")
	}
	for i, j := range perm {
		b, err := src()
		if err != nil || b != blocks[j] {
			t.Fatalf("draw %d = %p, %v; want block %d", i, b, err, j)
		}
	}
	if _, err := src(); err != io.EOF {
		t.Errorf("exhausted shuffle returned %v, want io.EOF", err)
	}
}

func TestRunChunkedDecoder(t *testing.T) {
	layout, err := core.NewChunkLayout(24, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	sources := make([][]byte, layout.Total)
	for i := range sources {
		sources[i] = []byte{byte(i), byte(i >> 8), 7}
	}
	enc, err := core.NewChunkedEncoder(layout, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, 4*layout.Total)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewChunkedDecoder(layout, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Slice(blocks), dec, Options{Checkpoints: []int{0, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.DecodedBlocks != layout.Total || res.DecodedLevels != 0 {
		t.Errorf("chunked collection %+v, want complete with no levels", res)
	}
	for i, s := range dec.Sources() {
		if !bytes.Equal(s, sources[i]) {
			t.Fatalf("source %d = %v, want %v", i, s, sources[i])
		}
	}
}

func TestRunStopsOnContext(t *testing.T) {
	l := mustLevels(t, 2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Slice(makeBlocks(t, core.PLC, l, 8, 0, 17)), mustDecoder(t, core.PLC, l, 0), Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run = %v, want context.Canceled", err)
	}
}
