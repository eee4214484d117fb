package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// Frame-path allocation benchmarks. The *Ref variants reimplement the
// pre-pool behavior (fresh buffer per frame) so `benchjson` can pair
// them and report the speedup and B/op delta of the reuse paths; run
// with -benchmem via `make bench-disk`.

// writeFrameAlloc is writeFrame without the buffer pool: one fresh
// build buffer per call, exactly what the code did before reuse.
func writeFrameAlloc(w io.Writer, typ byte, id uint32, body []byte) error {
	buf := make([]byte, 0, frameHeader+len(body))
	buf = binary.BigEndian.AppendUint32(buf, uint32(frameOverhead+len(body)))
	buf = append(buf, typ)
	idb := binary.BigEndian.AppendUint32(nil, id)
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(idb)
	crc.Write(body)
	buf = binary.BigEndian.AppendUint32(buf, crc.Sum32())
	buf = append(buf, idb...)
	buf = append(buf, body...)
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
			if err := writeFrame(io.Discard, framePut, 1, body); err != nil {
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
			if err := writeFrameAlloc(io.Discard, framePut, 1, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFrameRead(b *testing.B) {
	body := benchBody(4096)
	var wire bytes.Buffer
	if err := writeFrame(&wire, framePut, 1, body); err != nil {
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
	if err := writeFrame(&wire, framePut, 1, body); err != nil {
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
