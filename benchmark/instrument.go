package main

import (
	"context"
	"hash/fnv"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// instr is everything the traced pass attaches to the program from
// outside: a metrics registry handed to every layer that accepts one, a
// span tracer, and the engine decorator's tallies. A nil *instr is the
// untraced pass.
type instr struct {
	reg    *metrics.Registry
	tr     *tracer
	engine engineRec
}

func newInstr() *instr { return &instr{reg: metrics.NewRegistry(), tr: newTracer()} }

func (in *instr) registry() *metrics.Registry {
	if in == nil {
		return nil
	}
	return in.reg
}

func (in *instr) tracer() *tracer {
	if in == nil {
		return nil
	}
	return in.tr
}

// engineRec tallies the calls every server of a fleet makes into its
// storage engine.
type engineRec struct {
	putMs     samples
	getMs     samples
	putBusy   atomic.Int64 // ns
	getBusy   atomic.Int64 // ns
	getBlocks atomic.Int64
}

// tracedEngine decorates a node's BlockStore: it times Put and Get and
// records each as an engine span. Everything else passes through.
type tracedEngine struct {
	store.BlockStore
	in *instr
}

func wireHash(wire []byte) uint64 {
	h := fnv.New64a()
	h.Write(wire)
	return h.Sum64()
}

func (e *tracedEngine) Put(obj core.ObjectID, level int, wire []byte) (bool, error) {
	t0 := time.Now()
	stored, err := e.BlockStore.Put(obj, level, wire)
	t1 := time.Now()
	d := t1.Sub(t0)
	e.in.engine.putMs.add(ms(d))
	e.in.engine.putBusy.Add(int64(d))
	parent, ok := e.in.tr.putParent(uint64(obj), wireHash(wire))
	e.in.tr.engineSpan("engine.put", parent, ok, t0, t1, level)
	return stored, err
}

func (e *tracedEngine) Get(obj core.ObjectID, maxLevel int) ([][]byte, error) {
	t0 := time.Now()
	out, err := e.BlockStore.Get(obj, maxLevel)
	t1 := time.Now()
	d := t1.Sub(t0)
	e.in.engine.getMs.add(ms(d))
	e.in.engine.getBusy.Add(int64(d))
	e.in.engine.getBlocks.Add(int64(len(out)))
	parent, ok := e.in.tr.getParent(uint64(obj))
	e.in.tr.engineSpan("engine.get", parent, ok, t0, t1, len(out))
	return out, err
}

// countingDialer counts the client side of the wire: connections dialed
// and bytes each way. It is attached in both passes — the heal workload's
// end-to-end wire cost is read from it — and costs one atomic add per
// read or write.
type countingDialer struct {
	d     net.Dialer
	dials atomic.Int64
	in    atomic.Int64
	out   atomic.Int64
}

func (c *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := c.d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	return &countingConn{Conn: conn, c: c}, nil
}

// bytes returns the wire bytes moved so far, both directions.
func (c *countingDialer) bytes() int64 { return c.in.Load() + c.out.Load() }

type countingConn struct {
	net.Conn
	c *countingDialer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.out.Add(int64(n))
	return n, err
}
