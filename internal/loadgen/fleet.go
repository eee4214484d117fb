package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
)

// Fleet abstracts the daemons under test: a set of block-store
// addresses that can be killed and restarted by index, each optionally
// exposing an HTTP metrics endpoint to scrape. cmd/prlcload implements
// it over real prlcd processes; ServerFleet runs servers in-process so
// loadgen's own tests need no binaries.
type Fleet interface {
	Addrs() []string
	// MetricsAddrs returns the observability addresses, aligned with
	// Addrs; "" means the node exposes none.
	MetricsAddrs() []string
	Kill(node int) error
	Restart(node int) error
}

// ServerFleet is an in-process Fleet: n store.Servers over per-node
// MemStore engines and per-node metrics registries. Kill shuts the
// server down; Restart boots a new server at the same address over the
// same engine and registry, matching a daemon restart with an intact
// data directory.
type ServerFleet struct {
	mu      sync.Mutex
	addrs   []string
	maddrs  []string
	engines []*store.MemStore
	regs    []*metrics.Registry
	srvs    []*store.Server // nil while a node is down
	msrvs   []*http.Server
}

// NewServerFleet boots n nodes on loopback. withMetrics adds an HTTP
// metrics listener per node so scrape cross-checks work in-process.
func NewServerFleet(n int, withMetrics bool) (*ServerFleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: fleet needs at least one node")
	}
	f := &ServerFleet{
		addrs:   make([]string, n),
		maddrs:  make([]string, n),
		engines: make([]*store.MemStore, n),
		regs:    make([]*metrics.Registry, n),
		srvs:    make([]*store.Server, n),
		msrvs:   make([]*http.Server, n),
	}
	for i := 0; i < n; i++ {
		f.engines[i] = store.NewMemStore(0)
		f.regs[i] = metrics.NewRegistry()
		srv, err := store.NewServer(store.ServerConfig{
			Addr:    "127.0.0.1:0",
			Blocks:  f.engines[i],
			Metrics: f.regs[i],
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.srvs[i] = srv
		f.addrs[i] = srv.Addr()
		if withMetrics {
			mln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				f.Close()
				return nil, err
			}
			ms := &http.Server{Handler: metrics.Handler(f.regs[i])}
			go ms.Serve(mln)
			f.msrvs[i] = ms
			f.maddrs[i] = mln.Addr().String()
		}
	}
	return f, nil
}

func (f *ServerFleet) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.addrs))
	copy(out, f.addrs)
	return out
}

func (f *ServerFleet) MetricsAddrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.maddrs))
	copy(out, f.maddrs)
	return out
}

// Registries exposes the per-node registries for direct assertions in
// tests (the scrape path is exercised separately).
func (f *ServerFleet) Registries() []*metrics.Registry { return f.regs }

func (f *ServerFleet) Kill(node int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if node < 0 || node >= len(f.srvs) {
		return fmt.Errorf("loadgen: kill node %d of %d", node, len(f.srvs))
	}
	srv := f.srvs[node]
	if srv == nil {
		return fmt.Errorf("loadgen: node %d already down", node)
	}
	f.srvs[node] = nil
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func (f *ServerFleet) Restart(node int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if node < 0 || node >= len(f.srvs) {
		return fmt.Errorf("loadgen: restart node %d of %d", node, len(f.srvs))
	}
	if f.srvs[node] != nil {
		return fmt.Errorf("loadgen: node %d already up", node)
	}
	// Same address, same engine, same registry: a daemon restart with an
	// intact data directory. The old listener is closed, so rebinding the
	// port succeeds immediately on loopback.
	srv, err := store.NewServer(store.ServerConfig{
		Addr:    f.addrs[node],
		Blocks:  f.engines[node],
		Metrics: f.regs[node],
	})
	if err != nil {
		return fmt.Errorf("loadgen: restart node %d: %w", node, err)
	}
	f.srvs[node] = srv
	return nil
}

// Revive restarts every down node — matrix runners call it between
// scenarios so a permanent kill in one scenario does not degrade the
// next.
func (f *ServerFleet) Revive() error {
	f.mu.Lock()
	down := []int{}
	for i, srv := range f.srvs {
		if srv == nil {
			down = append(down, i)
		}
	}
	f.mu.Unlock()
	for _, i := range down {
		if err := f.Restart(i); err != nil {
			return err
		}
	}
	return nil
}

// Close tears the whole fleet down, ignoring already-dead nodes.
func (f *ServerFleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, srv := range f.srvs {
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			srv.Shutdown(ctx)
			cancel()
			f.srvs[i] = nil
		}
		if f.msrvs[i] != nil {
			f.msrvs[i].Close()
			f.msrvs[i] = nil
		}
	}
}

// fleetInjector adapts a Fleet plus the generator's FaultDialer into
// the chaos controller's Injector: process faults go to the fleet,
// join faults to the placement ring, transport faults to the dialer.
type fleetInjector struct {
	fleet  Fleet
	dialer *store.FaultDialer
	addrs  []string
	join   func(addr string) error

	mu     sync.Mutex
	spares []int // fleet indices not yet joined to the ring, in join order
}

// newFleetInjector wires the injector: join adds a fleet address to the
// placement ring, and the last spares fleet nodes form the pool a
// Node == -1 join fault draws from, in index order.
func newFleetInjector(fleet Fleet, dialer *store.FaultDialer, join func(addr string) error, spares int) *fleetInjector {
	fi := &fleetInjector{fleet: fleet, dialer: dialer, addrs: fleet.Addrs(), join: join}
	for i := len(fi.addrs) - spares; i < len(fi.addrs); i++ {
		fi.spares = append(fi.spares, i)
	}
	return fi
}

func (fi *fleetInjector) Kill(node int) error    { return fi.fleet.Kill(node) }
func (fi *fleetInjector) Restart(node int) error { return fi.fleet.Restart(node) }

func (fi *fleetInjector) Join(node int) error {
	fi.mu.Lock()
	if node == -1 && len(fi.spares) > 0 {
		node = fi.spares[0]
		fi.spares = fi.spares[1:]
	}
	fi.mu.Unlock()
	switch {
	case node == -1:
		return fmt.Errorf("loadgen: join fault with no spare nodes left")
	case node < 0 || node >= len(fi.addrs):
		return fmt.Errorf("loadgen: join node %d of %d", node, len(fi.addrs))
	}
	return fi.join(fi.addrs[node])
}
func (fi *fleetInjector) Partition(node int)   { fi.dialer.Partition(fi.addrs[node]) }
func (fi *fleetInjector) Heal(node int)        { fi.dialer.Heal(fi.addrs[node]) }
func (fi *fleetInjector) SetCorrupt(p float64) { fi.dialer.SetCorruptProb(p) }
func (fi *fleetInjector) SetDelay(p float64)   { fi.dialer.SetDelayProb(p) }
