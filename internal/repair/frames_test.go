package repair

import (
	"context"
	"net"
	"sync"
	"testing"
)

// frameCounter is a Dialer that counts the frames written to each
// address by op byte: a store frame is one Write, its op the byte after
// the 4-byte length.
type frameCounter struct {
	mu     sync.Mutex
	frames map[string]map[byte]int
}

func (c *frameCounter) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, c: c, addr: addr}, nil
}

// reset forgets every count.
func (c *frameCounter) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = make(map[string]map[byte]int)
}

// count returns how many op frames went to addr since the last reset.
func (c *frameCounter) count(addr string, op byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[addr][op]
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

// TestRepairRoundOneFramePerOwner is the heal step's frame count: after
// one owner of three is wiped, one repair round places its regenerated
// blocks with exactly one multi-block put ('M') per owner — level 0
// lives on all three, so every owner gets one.
func TestRepairRoundOneFramePerOwner(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 71, 24)
	counter := &frameCounter{}
	counter.reset()
	f := newFleetOver(t, 3, levels.Count(), counter)
	d, err := New(f.repl, f.seed(levels, blocks, targets))
	if err != nil {
		t.Fatal(err)
	}
	f.kill(2)
	f.heal(2)
	counter.reset()
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regenerated == 0 {
		t.Fatal("the round regenerated nothing")
	}
	for _, addr := range f.addrs {
		if m := counter.count(addr, 'M'); m != 1 {
			t.Errorf("owner %s was sent %d multi-block puts, want 1", addr, m)
		}
	}
}
