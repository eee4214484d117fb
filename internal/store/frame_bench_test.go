package store

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// Frame-path allocation benchmarks. FrameWrite pairs against
// FrameWriteRef and FrameRead against FrameReadRef; the Ref variants
// reimplement the pre-pool behavior (fresh buffer per frame), so each
// pair's time and B/op delta is what the reuse paths save:
//
//	go test -run='^$' -bench 'BenchmarkFrame(Write|Read)' -benchmem ./internal/store

// writeFrameAlloc is writeFrame without the buffer pool: one fresh
// build buffer per call, exactly what the code did before reuse.
func writeFrameAlloc(w io.Writer, typ byte, id uint32, body []byte) error {
	buf := append(beginFrame(make([]byte, 0, frameHeader+len(body)), typ, id), body...)
	sealFrame(buf)
	_, err := w.Write(buf)
	return err
}

func benchBody(n int) []byte {
	body := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(body)
	return body
}

func BenchmarkFrameWrite(b *testing.B) {
	body := benchBody(4096)
	b.SetBytes(int64(frameHeader + len(body)))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := writeFrame(io.Discard, frameMultiPut, 1, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFrameWriteRef(b *testing.B) {
	body := benchBody(4096)
	b.SetBytes(int64(frameHeader + len(body)))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := writeFrameAlloc(io.Discard, frameMultiPut, 1, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFrameRead(b *testing.B) {
	body := benchBody(4096)
	var wire bytes.Buffer
	if err := writeFrame(&wire, frameMultiPut, 1, body); err != nil {
		b.Fatal(err)
	}
	raw := wire.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	var scratch []byte
	r := bytes.NewReader(raw)
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		var err error
		_, _, _, scratch, err = readFrameBuf(r, DefaultMaxFrame, scratch)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameReadRef(b *testing.B) {
	body := benchBody(4096)
	var wire bytes.Buffer
	if err := writeFrame(&wire, frameMultiPut, 1, body); err != nil {
		b.Fatal(err)
	}
	raw := wire.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	r := bytes.NewReader(raw)
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		if _, _, _, err := readFrame(r, DefaultMaxFrame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameBuffersReused pins what the FrameWrite and FrameRead pairs
// exist to show: per 4 KiB frame, writeFrame with a warm pool allocates
// less than writeFrameAlloc's fresh build buffer, and readFrameBuf with a
// warm scratch less than readFrame's fresh body.
func TestFrameBuffersReused(t *testing.T) {
	body := benchBody(4096)
	writeAllocs := func(write func(io.Writer, byte, uint32, []byte) error) float64 {
		return testing.AllocsPerRun(1000, func() {
			if err := write(io.Discard, frameMultiPut, 1, body); err != nil {
				t.Fatal(err)
			}
		})
	}
	pooled, built := writeAllocs(writeFrame), writeAllocs(writeFrameAlloc)
	if pooled >= built {
		t.Errorf("writeFrame: %.2f allocs per frame, writeFrameAlloc %.2f: the pooled buffer is not reused", pooled, built)
	}

	var wire bytes.Buffer
	if err := writeFrame(&wire, frameMultiPut, 1, body); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	r := bytes.NewReader(raw)
	var scratch []byte
	reused := testing.AllocsPerRun(1000, func() {
		r.Reset(raw)
		var err error
		if _, _, _, scratch, err = readFrameBuf(r, DefaultMaxFrame, scratch); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(1000, func() {
		r.Reset(raw)
		if _, _, _, err := readFrame(r, DefaultMaxFrame); err != nil {
			t.Fatal(err)
		}
	})
	if reused >= fresh {
		t.Errorf("readFrameBuf: %.2f allocs per frame, readFrame %.2f: the scratch is not reused", reused, fresh)
	}
	t.Logf("allocs per 4 KiB frame: write %.2f pooled, %.2f fresh; read %.2f scratch, %.2f fresh", pooled, built, reused, fresh)
}
