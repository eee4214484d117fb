package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// frameCounter is a Dialer that counts the frames written to each
// address by op byte. A frame is one Write (see writeFrame), so the op
// is the byte after the 4-byte length.
type frameCounter struct {
	mu     sync.Mutex
	frames map[string]map[byte]int
}

func newFrameCounter() *frameCounter {
	return &frameCounter{frames: make(map[string]map[byte]int)}
}

func (c *frameCounter) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, c: c, addr: addr}, nil
}

// count returns how many op frames went to addr.
func (c *frameCounter) count(addr string, op byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[addr][op]
}

// total returns how many frames of any op went to addr.
func (c *frameCounter) total(addr string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.frames[addr] {
		n += k
	}
	return n
}

type countedConn struct {
	net.Conn
	c    *frameCounter
	addr string
}

func (cc *countedConn) Write(p []byte) (int, error) {
	if len(p) > 4 {
		cc.c.mu.Lock()
		if cc.c.frames[cc.addr] == nil {
			cc.c.frames[cc.addr] = make(map[byte]int)
		}
		cc.c.frames[cc.addr][p[4]]++
		cc.c.mu.Unlock()
	}
	return cc.Conn.Write(p)
}

// TestPlacedPutAllOneFramePerOwner is the write path's frame count: a
// 200-block PutAll of one object, and a single-block Put at level 0 and
// at the last level, send each window owner exactly one multi-block put
// and nothing else, and the other owners nothing. The bytes the clients
// write are exactly those frames: per owner, the header and count, then
// a length and the wire of each block it holds — copies × (header + 8 +
// wire) for one block.
func TestPlacedPutAllOneFramePerOwner(t *testing.T) {
	obj := core.NamedObject("frames")
	_, _, blocks := keyedBlocks(t, obj, 200)
	first := func(level int) []*core.CodedBlock {
		for _, b := range blocks {
			if b.Level == level {
				return []*core.CodedBlock{b}
			}
		}
		t.Fatalf("test code has no level-%d block", level)
		return nil
	}
	for _, tc := range []struct {
		name   string
		blocks []*core.CodedBlock // one goes through Put, more through PutAll
		copies int                // owners sent a frame; 0 for any
	}{
		{"PutAll", blocks, 0},
		{"Put level 0", first(0), 3},
		{"Put last level", first(1), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			counter := newFrameCounter()
			servers := make([]*Server, 3)
			clients := make([]*Client, 3)
			for i := range clients {
				servers[i] = newTestServer(t, ServerConfig{})
				cfg := fastClientCfg(servers[i].Addr(), counter)
				cfg.Metrics = reg
				cl, err := NewClient(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				clients[i] = cl
			}
			p, err := NewPlaced(clients, 2, PlacedConfig{Replication: 3, Tolerance: 1})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if len(tc.blocks) == 1 {
				err = p.Put(ctx, tc.blocks[0])
			} else if n, perr := p.PutAll(ctx, tc.blocks); n != len(tc.blocks) {
				err = fmt.Errorf("PutAll landed %d/%d: %v", n, len(tc.blocks), perr)
			}
			if err != nil {
				t.Fatal(err)
			}
			owners, wantBytes := 0, uint64(0)
			for i, cl := range clients {
				held, _ := servers[i].blocks.Get(obj, -1)
				want := 0
				if len(held) > 0 {
					want = 1
					owners++
					wantBytes += uint64(frameHeader + blockListSize(held))
				}
				if m, all := counter.count(cl.Addr(), frameMultiPut), counter.total(cl.Addr()); m != want || all != want {
					t.Errorf("owner %s holds %d blocks and was sent %d multi-block puts of %d frames, want %d of %d",
						cl.Addr(), len(held), m, all, want, want)
				}
			}
			if tc.copies > 0 {
				if owners != tc.copies {
					t.Errorf("%d owners hold the block, want %d", owners, tc.copies)
				}
				wire, err := tc.blocks[0].MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if per := uint64(frameHeader + 8 + len(wire)); wantBytes != uint64(tc.copies)*per {
					t.Errorf("owners hold %d frame bytes, want %d copies of %d", wantBytes, tc.copies, per)
				}
			}
			if got := reg.Counter("store_client_frame_bytes_out_total").Value(); got != wantBytes {
				t.Errorf("store_client_frame_bytes_out_total = %d, want %d", got, wantBytes)
			}
		})
	}
}

// TestPutAllPlacesLikePut pins that a batch lands exactly where one Put
// per block would put it, in the same order on every replica: the same
// windows from the same rotation, only fewer frames.
func TestPutAllPlacesLikePut(t *testing.T) {
	ctx := context.Background()
	_, _, blocks := testCode(t, 60)
	fleet := func() ([]*Server, *Replicated) {
		servers := make([]*Server, 4)
		clients := make([]*Client, 4)
		for i := range servers {
			servers[i] = newTestServer(t, ServerConfig{})
			clients[i] = newTestClient(t, servers[i].Addr(), nil)
		}
		repl, err := NewReplicated(clients, 2, ReplicatedConfig{Tolerance: 1})
		if err != nil {
			t.Fatal(err)
		}
		return servers, repl
	}
	eachServers, each := fleet()
	for _, b := range blocks {
		if err := each.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	batchServers, batch := fleet()
	if n, err := batch.PutAll(ctx, blocks); err != nil || n != len(blocks) {
		t.Fatalf("PutAll landed %d/%d: %v", n, len(blocks), err)
	}
	for i := range eachServers {
		want, _ := eachServers[i].blocks.Get(core.ZeroObject, -1)
		got, _ := batchServers[i].blocks.Get(core.ZeroObject, -1)
		if len(got) != len(want) {
			t.Fatalf("replica %d holds %d blocks after PutAll, %d after Put", i, len(got), len(want))
		}
		for k := range want {
			if !bytes.Equal(got[k], want[k]) {
				t.Fatalf("replica %d block %d differs between PutAll and Put", i, k)
			}
		}
	}
}

// TestMultiPutAcksPerBlock pins the per-block answer: in one frame, a
// block the engine stores, one it already holds, one that is not a
// block and one the full engine refuses each get their own status, and
// a rejected block does not fail its neighbours.
func TestMultiPutAcksPerBlock(t *testing.T) {
	ctx := context.Background()
	_, _, blocks := testCode(t, 4)
	srv := newTestServer(t, ServerConfig{Blocks: NewMemStore(2)})
	cl := newTestClient(t, srv.Addr(), nil)
	if err := cl.Put(ctx, blocks[0]); err != nil {
		t.Fatal(err)
	}
	var wires [][]byte
	for _, b := range blocks[:3] {
		w, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, w)
	}
	// held, stored, not a block, refused: the engine's cap is 2.
	wires = [][]byte{wires[0], wires[1], []byte("not a block"), wires[2]}
	errs := make([]error, len(wires))
	cl.putWires(ctx, wires, errs)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("held and fresh blocks answered %v, %v; want both stored", errs[0], errs[1])
	}
	if !errors.Is(errs[2], ErrBadRequest) {
		t.Fatalf("garbage entry answered %v, want ErrBadRequest", errs[2])
	}
	if !errors.Is(errs[3], ErrStoreFull) {
		t.Fatalf("block past the cap answered %v, want ErrStoreFull", errs[3])
	}
	if srv.Len() != 2 {
		t.Fatalf("server holds %d blocks, want 2", srv.Len())
	}
	if n, err := cl.PutAll(ctx, blocks); n != 2 || !errors.Is(err, ErrStoreFull) {
		t.Fatalf("PutAll on a full engine = %d, %v; want the 2 held blocks and ErrStoreFull", n, err)
	}
}

// TestPutAllFailsOverPastTheWindow pins the batch's failover: blocks
// every window replica refuses move on along their order and still
// land, and a batch with a block no replica takes reports it while the
// others land.
func TestPutAllFailsOverPastTheWindow(t *testing.T) {
	ctx := context.Background()
	_, _, blocks := testCode(t, 31)
	fresh := blocks[30]
	blocks = blocks[:30]
	servers := make([]*Server, 3)
	clients := make([]*Client, 3)
	for i := range servers {
		cfg := ServerConfig{}
		if i < 2 {
			cfg.Blocks = NewMemStore(1) // full after the first block it is sent
		}
		servers[i] = newTestServer(t, cfg)
		clients[i] = newTestClient(t, servers[i].Addr(), nil)
	}
	repl, err := NewReplicated(clients, 2, ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	landed, err := repl.PutAllPreferring(ctx, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range landed {
		if !ok {
			t.Fatalf("block %d did not land", i)
		}
	}
	// Every window either holds replica 2 or is {0, 1}, which fails over
	// to it.
	if servers[2].Len() != len(blocks) {
		t.Fatalf("replica 2 holds %d of %d blocks", servers[2].Len(), len(blocks))
	}

	// With replica 2 gone, a block replica 0 already holds still lands
	// (a duplicate is acked even by a full engine); a fresh one cannot.
	dead := fastClientCfg("127.0.0.1:1", nil)
	dead.Retry.MaxAttempts = 1
	gone, err := NewClient(dead)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gone.Close() })
	repl, err = NewReplicated([]*Client{clients[0], clients[1], gone}, 2, ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	landed, err = repl.PutAllPreferring(ctx, []*core.CodedBlock{blocks[0], fresh}, nil)
	if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("a batch with an unplaceable block answered %v, want ErrStoreUnavailable", err)
	}
	if !landed[0] || landed[1] {
		t.Fatalf("landed %v, want the held block only", landed)
	}
}
