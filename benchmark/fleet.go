package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/diskstore"
	"repro/internal/store"
)

// fleetSpec says what to boot.
type fleetSpec struct {
	nodes int
	// disk selects diskstore engines (FsyncBatch) under dir; otherwise
	// every node runs a MemStore.
	disk       bool
	dir        string
	cacheBytes int64
}

type node struct {
	addr   string
	dir    string
	engine store.BlockStore
	srv    *store.Server
}

// fleet is the program under test: store.Servers on loopback, one engine
// each, all in this process. The benchmark reaches it only through
// store.Client connections and the public engine interface.
type fleet struct {
	spec   fleetSpec
	in     *instr
	dialer *countingDialer
	nodes  []*node
}

// basePort is where a fleet's nodes listen: node i on loopback port
// basePort+i. A node's place on the placement ring is a hash of its
// address, so fixed ports give every run the same ring, and a seed then
// fixes which nodes own which object — what makes levels_after_loss and
// the stored-bytes ratio repeat exactly for a seed. The ports sit below
// the kernel's ephemeral range; a node whose port is taken falls back to
// an ephemeral one (and only the exact repeatability is lost).
const basePort = 21700

// bootFleet starts every node. in is nil for an untraced fleet.
func bootFleet(spec fleetSpec, in *instr) (*fleet, error) {
	f := &fleet{spec: spec, in: in, dialer: &countingDialer{}}
	for i := 0; i < spec.nodes; i++ {
		n := &node{addr: fmt.Sprintf("127.0.0.1:%d", basePort+i)}
		if spec.disk {
			n.dir = filepath.Join(spec.dir, fmt.Sprintf("node%d", i))
		}
		f.nodes = append(f.nodes, n)
		if err := f.openEngine(n); err != nil {
			f.close()
			return nil, err
		}
		if err := f.startServer(n); err != nil {
			n.addr = "" // taken: let the kernel pick
			if err := f.startServer(n); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	return f, nil
}

func (f *fleet) openEngine(n *node) error {
	if !f.spec.disk {
		n.engine = store.NewMemStore(0)
		return nil
	}
	eng, err := diskstore.Open(n.dir, diskstore.Options{
		Fsync:      diskstore.FsyncBatch,
		CacheBytes: f.spec.cacheBytes,
		Metrics:    f.in.registry(),
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	n.engine = eng
	return nil
}

// startServer serves n's engine, on the node's previous address when it
// has one — a restarted daemon keeps its place in the ring.
func (f *fleet) startServer(n *node) error {
	blocks := n.engine
	if f.in != nil {
		blocks = &tracedEngine{BlockStore: n.engine, in: f.in}
	}
	srv, err := store.NewServer(store.ServerConfig{Addr: n.addr, Blocks: blocks, Metrics: f.in.registry()})
	if err != nil {
		return err
	}
	n.srv, n.addr = srv, srv.Addr()
	return nil
}

func (f *fleet) stopServer(n *node) {
	if n.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	n.srv = nil
}

func (f *fleet) stopNode(n *node) error {
	f.stopServer(n)
	if n.engine == nil {
		return nil
	}
	err := n.engine.Close()
	n.engine = nil
	return err
}

// wipe restarts node i with an empty engine at the same address: the
// node came back, its data did not.
func (f *fleet) wipe(i int) error {
	n := f.nodes[i]
	if err := f.stopNode(n); err != nil {
		return err
	}
	if n.dir != "" {
		if err := os.RemoveAll(n.dir); err != nil {
			return err
		}
	}
	if err := f.openEngine(n); err != nil {
		return err
	}
	return f.startServer(n)
}

// reopen closes every server and engine, then replays and serves each
// again. It returns the time from the first close to the last node
// serving, and the sum of the engine open times within it.
func (f *fleet) reopen(parent spanRef) (total, opens time.Duration, err error) {
	t0 := time.Now()
	for _, n := range f.nodes {
		if err := f.stopNode(n); err != nil {
			return 0, 0, err
		}
	}
	for _, n := range f.nodes {
		sp := parent.child("diskstore.open")
		o0 := time.Now()
		err := f.openEngine(n)
		opens += time.Since(o0)
		sp.end(0)
		if err != nil {
			return 0, 0, err
		}
		if err := f.startServer(n); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(t0), opens, nil
}

// attach restarts every server with the traced pass's instrumentation,
// over the same engines and addresses. A workload that provisions a read
// set calls it after provisioning, so the traced series hold only the
// measured window.
func (f *fleet) attach(in *instr) error {
	f.in = in
	for _, n := range f.nodes {
		f.stopServer(n)
		if err := f.startServer(n); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		f.stopNode(n)
	}
	if f.spec.disk {
		os.RemoveAll(f.spec.dir)
	}
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.addr
	}
	return out
}

// client dials one node through the counting dialer. instrumented
// selects whether the client reports into the traced pass's registry;
// provisioning clients do not.
func (f *fleet) client(addr string, instrumented bool) (*store.Client, error) {
	cfg := store.ClientConfig{Addr: addr, Dialer: f.dialer}
	if instrumented {
		cfg.Metrics = f.in.registry()
	}
	return store.NewClient(cfg)
}

func (f *fleet) clients(n int, instrumented bool) ([]*store.Client, error) {
	out := make([]*store.Client, n)
	for i := range out {
		cl, err := f.client(f.nodes[i].addr, instrumented)
		if err != nil {
			return nil, err
		}
		out[i] = cl
	}
	return out, nil
}

// storedBytes is what the fleet holds for its users: segment file bytes
// on disk engines, stored wire bytes on memory engines.
func (f *fleet) storedBytes() int64 {
	var total int64
	for _, n := range f.nodes {
		if lister, ok := n.engine.(store.SegmentLister); ok {
			for _, seg := range lister.SegmentInfos() {
				total += seg.Bytes
			}
			continue
		}
		total += n.engine.Bytes()
	}
	return total
}
