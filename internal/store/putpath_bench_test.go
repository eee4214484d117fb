package store

import (
	"context"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkReplicatedPutAllocs is one single-block put end to end: a
// 4 KiB level-0 block through Replicated.Put to 3 MemStore replicas
// over loopback, the servers in process. "dedup" puts a block every
// replica already holds; "fresh" puts a new block each time (its first
// coefficient bytes count the iterations), and every 256 puts the
// object is deleted with the timer stopped, so the replicas stay small.
// B/op and allocs/op, client and servers together, are the numbers to
// watch:
//
//	go test -run='^$' -bench BenchmarkReplicatedPutAllocs -benchmem ./internal/store
func BenchmarkReplicatedPutAllocs(b *testing.B) {
	for _, fresh := range []bool{false, true} {
		name := "dedup"
		if fresh {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			clients := make([]*Client, 3)
			for i := range clients {
				srv, err := NewServer(ServerConfig{})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() {
					sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					srv.Shutdown(sctx)
				})
				if clients[i], err = NewClient(ClientConfig{Addr: srv.Addr()}); err != nil {
					b.Fatal(err)
				}
			}
			repl, err := NewReplicated(clients, 1, ReplicatedConfig{})
			if err != nil {
				b.Fatal(err)
			}
			defer repl.Close()

			const obj = core.ObjectID(7)
			rng := rand.New(rand.NewSource(1))
			blk := &core.CodedBlock{Object: obj, Coeff: make([]byte, 16), Payload: make([]byte, 4<<10)}
			rng.Read(blk.Coeff)
			rng.Read(blk.Payload)
			if err := repl.Put(ctx, blk); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fresh {
					binary.LittleEndian.PutUint64(blk.Coeff, uint64(i+1))
				}
				if err := repl.Put(ctx, blk); err != nil {
					b.Fatal(err)
				}
				if fresh && i%256 == 255 {
					b.StopTimer()
					for _, cl := range clients {
						if _, err := cl.Delete(ctx, obj); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			}
		})
	}
}
