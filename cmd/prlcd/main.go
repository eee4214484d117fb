// Command prlcd runs the networked priority block store: a daemon
// (`prlcd serve`) plus client subcommands (`prlcd store ...`) that ship
// a file into a replicated daemon fleet with priority-differentiated
// replication and pull it back out, tolerating dead replicas, and a
// maintenance subcommand (`prlcd heal`) that re-homes objects the ring
// displaced and regenerates redundancy lost to churn, by decode-free
// recombination of surviving blocks.
//
// Usage:
//
//	prlcd serve -addr 127.0.0.1:7071
//	prlcd store ping -addr 127.0.0.1:7071
//	prlcd store put -addrs 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073 \
//	      -in report.pdf -blocks 100 -levels 0.1,0.2,0.7 -scheme plc
//	prlcd store get -addrs ... -out recovered.pdf -scheme plc -sizes ... -size ...
//	prlcd store stat -addr 127.0.0.1:7071
//	prlcd store segments -addr 127.0.0.1:7071     # disk segment inventory
//	prlcd store shutdown -addr 127.0.0.1:7071
//	prlcd heal -addrs ... -scheme plc -sizes ... -total 160          # one round
//	prlcd heal -addrs ... -sizes ... -total 160 -watch               # loop
//	prlcd serve -addr ... -heal -peers ... -sizes ... -total 160     # serve + heal
//	prlcd serve -addr ... -metrics 127.0.0.1:7091                    # + observability
//	prlcd serve -addr ... -data-dir /var/lib/prlcd -retention 24h    # + persistence
//	prlcd metrics 127.0.0.1:7091                                     # metrics table
//	prlcd ring -addrs ... -object report.pdf                         # placement view
//
// `store put` prints the exact `store get` invocation that recovers the
// file, so the decode side needs no side-channel metadata.
//
// Every fleet-facing command goes through the placement ring, and every
// object lives on its `-replicas` ring successors, so many objects
// share one fleet without mixing. With `-object NAME`, put/get address
// one object namespace; without, object zero — the key-less namespace.
// `prlcd heal` heals every object the fleet holds. `prlcd ring` shows
// the ring — node IDs, ownership ranges, and (with -object) an object's
// replica set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/mover"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prlcd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: prlcd serve|store|heal|ring|metrics [flags]")
	}
	switch args[0] {
	case "serve":
		return serve(args[1:], out)
	case "store":
		return storeCmd(args[1:], out)
	case "heal":
		return healCmd(args[1:], out)
	case "ring":
		return ringCmd(args[1:], out)
	case "metrics":
		return metricsCmd(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want serve, store, heal, ring or metrics)", args[0])
	}
}

func serve(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd serve", flag.ContinueOnError)
	var (
		addr         string
		maxConns     int
		maxBlocks    int
		metricsAddr  string
		withHeal     bool
		dataDir      string
		fsyncStr     string
		retention    time.Duration
		segmentBytes int64
		pidFile      string
		opts         healOpts
	)
	fs.StringVar(&addr, "addr", "127.0.0.1:7071", "listen address")
	fs.IntVar(&maxConns, "max-conns", 64, "maximum concurrent connections")
	fs.IntVar(&maxBlocks, "max-blocks", 0, "maximum stored blocks (0 = unlimited)")
	fs.StringVar(&metricsAddr, "metrics", "", "observability listen address (Prometheus /metrics, /metrics.json, /debug/pprof)")
	fs.BoolVar(&withHeal, "heal", false, "run the heal loop over -peers alongside serving: re-home displaced objects, refill short ones")
	fs.StringVar(&dataDir, "data-dir", "", "persist blocks to segment files under this directory (empty = in-memory)")
	fs.StringVar(&fsyncStr, "fsync", "batch", "disk durability: batch (group commit), always (per put) or none")
	fs.DurationVar(&retention, "retention", 0, "delete disk segments older than this rolling window (0 = keep forever)")
	fs.Int64Var(&segmentBytes, "segment-bytes", 0, "disk segment rotation threshold in bytes (0 = 64 MiB default)")
	fs.StringVar(&pidFile, "pid-file", "", "write the daemon PID here once serving (for process supervisors and chaos controllers)")
	opts.register(fs, "peers", 10*time.Second)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if pidFile != "" {
		// Written before the listen so a supervisor that saw the file can
		// immediately signal the process; removed on every exit path.
		if err := os.WriteFile(pidFile, []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
			return fmt.Errorf("serve: -pid-file: %w", err)
		}
		defer os.Remove(pidFile)
	}
	var reg *metrics.Registry
	if metricsAddr != "" {
		reg = metrics.NewRegistry()
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("serve: metrics listen %s: %w", metricsAddr, err)
		}
		defer mln.Close()
		msrv := &http.Server{Handler: metrics.Handler(reg)}
		go msrv.Serve(mln)
		defer msrv.Close()
		fmt.Fprintf(out, "prlcd: metrics on http://%s/metrics\n", mln.Addr())
	}
	opts.metrics = reg
	var engine store.BlockStore
	if dataDir != "" {
		fsyncMode, err := diskstore.ParseFsyncMode(fsyncStr)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		t0 := time.Now()
		eng, err := diskstore.Open(dataDir, diskstore.Options{
			SegmentBytes: segmentBytes,
			Fsync:        fsyncMode,
			Retention:    retention,
			MaxBlocks:    maxBlocks,
			Metrics:      reg,
		})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		// The daemon owns the engine's lifecycle: the server drains its
		// connections on Shutdown, then this close flushes the tail.
		defer eng.Close()
		fmt.Fprintf(out, "prlcd: disk store %s: recovered %d blocks in %d segments (%v, fsync=%s)\n",
			dataDir, eng.Len(), eng.Segments(), time.Since(t0).Round(time.Millisecond), fsyncMode)
		engine = eng
	} else {
		engine = store.NewMemStore(maxBlocks)
	}
	srv, err := store.NewServer(store.ServerConfig{
		Addr:     addr,
		MaxConns: maxConns,
		Blocks:   engine,
		Metrics:  reg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "prlcd: serving on %s\n", srv.Addr())
	if withHeal {
		// This daemon heals every object on the ring over -peers (which
		// should list every daemon, itself included) while serving its own
		// blocks. Safe to run on every daemon — the heal step verifies
		// before reclaiming, deletes are idempotent, and per-daemon jitter
		// in the loop desynchronizes a fleet that all do this.
		placed, m, err := opts.healer("serve -heal")
		if err != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
			return err
		}
		defer placed.Close()
		m.Start()
		fmt.Fprintf(out, "prlcd: healing %d peers every %v\n", len(placed.Members()), opts.interval)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := m.Stop(sctx); err != nil {
				fmt.Fprintf(out, "prlcd: heal stop: %v\n", err)
				return
			}
			fmt.Fprintf(out, "prlcd: heal stopped after %d rounds\n", m.Rounds())
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(sctx)
		fmt.Fprintln(out, "prlcd: drained")
		return err
	case <-srv.Done():
		// A client sent a shutdown frame; the server already drained.
		fmt.Fprintln(out, "prlcd: shut down by client")
		return nil
	}
}

func storeCmd(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: prlcd store ping|stat|segments|put|get|shutdown [flags]")
	}
	switch args[0] {
	case "ping":
		return pingCmd(args[1:], out)
	case "stat":
		return statCmd(args[1:], out)
	case "put":
		return putCmd(args[1:], out)
	case "get":
		return getCmd(args[1:], out)
	case "segments":
		return segmentsCmd(args[1:], out)
	case "shutdown":
		return shutdownCmd(args[1:], out)
	default:
		return fmt.Errorf("unknown store subcommand %q", args[0])
	}
}

// segmentsCmd renders a disk-backed daemon's segment inventory: one line
// per on-disk segment with its id, record count, byte size, age, and
// whether it is still the active (write) segment.
func segmentsCmd(args []string, out io.Writer) error {
	return singleAddrCmd("segments", args, func(ctx context.Context, cl *store.Client) error {
		segs, err := cl.Segments(ctx)
		if err != nil {
			return err
		}
		var blocks int
		var bytes int64
		for _, sg := range segs {
			blocks += sg.Records
			bytes += sg.Bytes
		}
		fmt.Fprintf(out, "%s: %d segments, %d records, %d bytes\n", cl.Addr(), len(segs), blocks, bytes)
		fmt.Fprintf(out, "  %-10s %8s %12s %12s  %s\n", "segment", "records", "bytes", "age", "state")
		now := time.Now()
		for _, sg := range segs {
			state := "sealed"
			if sg.Active {
				state = "active"
			}
			fmt.Fprintf(out, "  %-10s %8d %12d %12s  %s\n",
				fmt.Sprintf("%08d", sg.ID), sg.Records, sg.Bytes,
				now.Sub(sg.Created).Round(time.Second), state)
		}
		return nil
	})
}

func newClient(addr string, timeout time.Duration) (*store.Client, error) {
	return store.NewClient(store.ClientConfig{Addr: addr, OpTimeout: timeout})
}

func singleAddrCmd(name string, args []string, f func(ctx context.Context, cl *store.Client) error) error {
	fs := flag.NewFlagSet("prlcd store "+name, flag.ContinueOnError)
	addr := fs.String("addr", "", "daemon address")
	timeout := fs.Duration("timeout", 5*time.Second, "per-attempt timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("%s: -addr is required", name)
	}
	cl, err := newClient(*addr, *timeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 4**timeout)
	defer cancel()
	return f(ctx, cl)
}

func pingCmd(args []string, out io.Writer) error {
	return singleAddrCmd("ping", args, func(ctx context.Context, cl *store.Client) error {
		start := time.Now()
		if err := cl.Ping(ctx); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: alive (%v)\n", cl.Addr(), time.Since(start).Round(time.Microsecond))
		return nil
	})
}

func statCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd store stat", flag.ContinueOnError)
	addr := fs.String("addr", "", "daemon address")
	objectStr := fs.String("object", "", "only show this object's section: a name to hash or canonical obj-<16 hex>")
	timeout := fs.Duration("timeout", 5*time.Second, "per-attempt timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("stat: -addr is required")
	}
	only, err := core.ParseObjectID(*objectStr)
	if err != nil {
		return fmt.Errorf("stat: -object: %w", err)
	}
	cl, err := newClient(*addr, *timeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 4**timeout)
	defer cancel()
	st, err := cl.Stat(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d blocks, %d bytes\n", cl.Addr(), st.Blocks, st.Bytes)
	for _, lc := range st.PerLevel {
		fmt.Fprintf(out, "  level %d: %d blocks, %d bytes\n", lc.Level, lc.Count, lc.Bytes)
	}
	for _, os := range st.PerObject {
		if *objectStr != "" && os.Object != only {
			continue
		}
		fmt.Fprintf(out, "  object %s: %d blocks, %d bytes\n", os.Object, os.Blocks, os.Bytes)
		for _, lc := range os.PerLevel {
			fmt.Fprintf(out, "    level %d: %d blocks, %d bytes\n", lc.Level, lc.Count, lc.Bytes)
		}
	}
	return nil
}

func shutdownCmd(args []string, out io.Writer) error {
	return singleAddrCmd("shutdown", args, func(ctx context.Context, cl *store.Client) error {
		if err := cl.Shutdown(ctx); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: draining\n", cl.Addr())
		return nil
	})
}

// openPlaced dials one client per node and returns the placement ring
// over them — the one front end every fleet-facing command talks to, all
// attached to reg (which may be nil for uninstrumented commands).
// replicas is the ring's R, the successors each object is placed on; 0,
// or more than the fleet has, means every node: the flat fleet is the
// ring with R = n.
func openPlaced(addrs []string, levels, replicas, tolerance int, timeout time.Duration, reg *metrics.Registry) (*store.Placed, error) {
	if replicas <= 0 || replicas > len(addrs) {
		replicas = len(addrs)
	}
	clients := make([]*store.Client, 0, len(addrs))
	for _, a := range addrs {
		cl, err := store.NewClient(store.ClientConfig{Addr: a, OpTimeout: timeout, Metrics: reg})
		if err != nil {
			for _, c := range clients {
				c.Close()
			}
			return nil, err
		}
		clients = append(clients, cl)
	}
	p, err := store.NewPlaced(clients, levels, store.PlacedConfig{
		Replication: replicas,
		Tolerance:   tolerance,
		Metrics:     reg,
	})
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
	}
	return p, err
}

// ringCmd renders the placement ring for a fleet: each node's ring ID,
// liveness (probed over the store wire path), and the hash range it
// owns, plus — with -object — one object's replica set. Placement is a
// pure function of the address list and liveness, so any machine can
// compute the same view without asking the daemons where data lives.
func ringCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd ring", flag.ContinueOnError)
	var (
		addrsStr  string
		objectStr string
		replicas  int
		timeout   time.Duration
	)
	fs.StringVar(&addrsStr, "addrs", "", "comma-separated daemon addresses of the fleet")
	fs.StringVar(&objectStr, "object", "", "also resolve this object's replica set: a name to hash or canonical obj-<16 hex>")
	fs.IntVar(&replicas, "replicas", 3, "ring successors each object is placed on")
	fs.DurationVar(&timeout, "timeout", 2*time.Second, "per-node probe timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := cliutil.SplitAddrs(addrsStr)
	if len(addrs) == 0 {
		return fmt.Errorf("ring: -addrs is required")
	}
	placed, err := openPlaced(addrs, 1, replicas, 0, timeout, nil)
	if err != nil {
		return err
	}
	defer placed.Close()

	for _, a := range addrs {
		pctx, cancel := context.WithTimeout(context.Background(), timeout)
		if err := placed.Probe(pctx, a); err != nil {
			placed.SetAlive(a, false)
		}
		cancel()
	}

	members := placed.Members()
	alive := 0
	for _, m := range members {
		if m.Alive {
			alive++
		}
	}
	fmt.Fprintf(out, "ring: %d nodes (%d alive), replication %d\n", len(members), alive, placed.Replication())
	// Ownership wraps among the alive nodes: each owns the ID range since
	// the previous alive node, half-open on the left.
	prevAlive := make([]uint64, len(members))
	for i, m := range members {
		prev := m.ID
		for j := 1; j <= len(members); j++ {
			c := members[(i-j+len(members))%len(members)]
			if c.Alive {
				prev = c.ID
				break
			}
		}
		prevAlive[i] = prev
	}
	for i, m := range members {
		if !m.Alive {
			fmt.Fprintf(out, "  %016x  %s  down\n", m.ID, m.Addr)
			continue
		}
		fmt.Fprintf(out, "  %016x  %s  alive  owns (%016x, %016x]\n", m.ID, m.Addr, prevAlive[i], m.ID)
	}
	if objectStr != "" {
		obj, err := core.ParseObjectID(objectStr)
		if err != nil {
			return fmt.Errorf("ring: -object: %w", err)
		}
		owners, err := placed.ReplicasForObject(obj)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "object %s (%016x): replicas %s\n", obj, uint64(obj), strings.Join(owners, ", "))
	}
	return nil
}

func putCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd store put", flag.ContinueOnError)
	var (
		addrsStr  string
		in        string
		objectStr string
		replicas  int
		tolerance int
		timeout   time.Duration
		ef        cliutil.EncodeFlags
	)
	fs.StringVar(&addrsStr, "addrs", "", "comma-separated daemon addresses")
	fs.StringVar(&in, "in", "", "input file")
	fs.StringVar(&objectStr, "object", "", "object namespace: a name to hash or canonical obj-<16 hex> (empty = object zero, the key-less file)")
	fs.IntVar(&replicas, "replicas", 3, "ring successors the object is placed on")
	fs.IntVar(&tolerance, "f", 1, "replica losses the last level must survive")
	fs.DurationVar(&timeout, "timeout", 5*time.Second, "per-attempt timeout")
	ef.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := cliutil.SplitAddrs(addrsStr)
	if len(addrs) == 0 || in == "" {
		return fmt.Errorf("put: -addrs and -in are required")
	}
	g, cb, err := ef.EncodeFile(in)
	if err != nil {
		return fmt.Errorf("put: %w", err)
	}
	obj, err := core.ParseObjectID(objectStr)
	if err != nil {
		return fmt.Errorf("put: -object: %w", err)
	}
	// Stamp every block with the object and route through the placement
	// ring: the blocks land on the object's -replicas ring successors.
	for _, b := range cb {
		b.Object = obj
	}
	placed, err := openPlaced(addrs, g.Groups(), replicas, tolerance, timeout, nil)
	if err != nil {
		return err
	}
	defer placed.Close()
	if _, err := placed.PutAll(context.Background(), cb); err != nil {
		if errors.Is(err, store.ErrStoreFull) {
			return fmt.Errorf("put: a daemon is at capacity (raise its -max-blocks, widen its -retention window, or add replicas): %w", err)
		}
		return err
	}
	shard, err := placed.Shard(obj)
	if err != nil {
		return err
	}
	copies := 0
	for _, b := range cb {
		copies += shard.ReplicasFor(b.Level)
	}
	owners := shard.ReplicaLabels()
	fmt.Fprintf(out, "stored %d coded blocks (%d replica copies) of %s on %d/%d daemons: %s\n",
		len(cb), copies, obj, len(owners), len(addrs), strings.Join(owners, ", "))
	objArgs := fmt.Sprintf(" -replicas %d", placed.Replication())
	if obj != core.ZeroObject {
		objArgs = fmt.Sprintf(" -object %s%s", objectStr, objArgs)
	}
	fmt.Fprintf(out, "recover with:\n  prlcd store get -addrs %s -out FILE %s%s\n",
		addrsStr, strings.Join(g.Args(), " "), objArgs)
	return nil
}

func getCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd store get", flag.ContinueOnError)
	var (
		addrsStr  string
		outPath   string
		objectStr string
		replicas  int
		timeout   time.Duration
	)
	fs.StringVar(&addrsStr, "addrs", "", "comma-separated daemon addresses")
	fs.StringVar(&outPath, "out", "", "output file for the recovered prefix")
	fs.StringVar(&objectStr, "object", "", "object namespace from put time: a name to hash or canonical obj-<16 hex>")
	fs.IntVar(&replicas, "replicas", 3, "ring successors used at put time")
	fs.DurationVar(&timeout, "timeout", 5*time.Second, "per-attempt timeout")
	geometry := cliutil.GeometryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := cliutil.SplitAddrs(addrsStr)
	if len(addrs) == 0 || outPath == "" {
		return fmt.Errorf("get: -addrs and -out are required")
	}
	g, err := geometry()
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	obj, err := core.ParseObjectID(objectStr)
	if err != nil {
		return fmt.Errorf("get: -object: %w", err)
	}
	// Resolve the object's shard on the same ring geometry the put used
	// and collect only that namespace's blocks — object zero for the
	// key-less file: the decoder cannot tell two objects' blocks apart.
	placed, err := openPlaced(addrs, g.Groups(), replicas, 1, timeout, nil)
	if err != nil {
		return err
	}
	defer placed.Close()
	// A read of every level stops at the owners whose answers already
	// decode them all.
	blocks, err := placed.Collect(context.Background(), obj, g.Groups()-1)
	if err != nil {
		return err
	}
	if len(blocks) == 0 {
		return fmt.Errorf("get: daemons hold no blocks")
	}
	g.PayloadLen = len(blocks[0].Payload)
	dec, err := g.Decoder()
	if err != nil {
		return err
	}
	res, err := collect.Run(collect.Slice(blocks), dec, collect.Options{})
	if err != nil {
		return err
	}
	for _, r := range res.Rejected {
		fmt.Fprintf(out, "get: skipping block: %v\n", r.Err)
	}
	file, summary := g.Recovered(dec, res)
	if err := os.WriteFile(outPath, file, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "collected %d blocks from %d daemons; wrote %s: %s\n", len(blocks), len(addrs), outPath, summary)
	return nil
}

// healOpts collects the fleet, code and loop flags shared by `prlcd
// heal` and `prlcd serve -heal`.
type healOpts struct {
	addrsStr  string
	schemeStr string
	sizesStr  string
	distStr   string
	total     int
	tolerance int
	replicas  int
	seed      int64
	timeout   time.Duration
	interval  time.Duration
	rate      int64
	metrics   *metrics.Registry // set programmatically, not a flag
}

func (o *healOpts) register(fs *flag.FlagSet, addrsFlag string, interval time.Duration) {
	fs.StringVar(&o.addrsStr, addrsFlag, "", "comma-separated daemon addresses of the fleet")
	fs.StringVar(&o.schemeStr, "scheme", "plc", "coding scheme used at put time")
	fs.StringVar(&o.sizesStr, "sizes", "", "per-level source block counts from put time")
	fs.StringVar(&o.distStr, "dist", "", "priority distribution from put time (default uniform)")
	fs.IntVar(&o.total, "total", 0, "coded blocks at full provisioning (M)")
	fs.IntVar(&o.tolerance, "f", 1, "replica losses the last level must survive")
	fs.IntVar(&o.replicas, "replicas", 3, "ring successors each object is placed on")
	fs.Int64Var(&o.seed, "seed", 1, "random seed for recombination")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-attempt timeout")
	fs.DurationVar(&o.interval, "interval", interval, "pause between heal rounds")
	fs.Int64Var(&o.rate, "rate", 8<<20, "heal byte-rate cap in bytes/second (0 = unlimited)")
}

// code parses the shared code-description flags: scheme, levels, and
// the provisioning targets (the distribution apportioned over -total).
func (o *healOpts) code(name string) (core.Scheme, *core.Levels, []int, error) {
	scheme, err := core.ParseScheme(o.schemeStr)
	if err != nil {
		return 0, nil, nil, err
	}
	sizes, err := cliutil.ParseInts(o.sizesStr)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s: -sizes: %w", name, err)
	}
	levels, err := core.NewLevels(sizes...)
	if err != nil {
		return 0, nil, nil, err
	}
	if o.total <= 0 {
		return 0, nil, nil, fmt.Errorf("%s: -total is required", name)
	}
	shares := []float64(core.NewUniformDistribution(levels.Count()))
	if o.distStr != "" {
		if shares, err = cliutil.ParseFloats(o.distStr); err != nil {
			return 0, nil, nil, fmt.Errorf("%s: -dist: %w", name, err)
		}
	}
	targets, err := dist.Apportion(shares, o.total)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s: -dist: %w", name, err)
	}
	return scheme, levels, targets, nil
}

// healer parses the code flags, dials the fleet as a -replicas wide
// ring, and returns it with the stopped heal loop over it, wired to the
// membership hook so ring changes kick immediate rounds. The caller
// closes the ring.
func (o *healOpts) healer(name string) (*store.Placed, *mover.Mover, error) {
	addrs := cliutil.SplitAddrs(o.addrsStr)
	if len(addrs) == 0 || o.sizesStr == "" {
		return nil, nil, fmt.Errorf("%s: fleet addresses and -sizes are required", name)
	}
	scheme, levels, targets, err := o.code(name)
	if err != nil {
		return nil, nil, err
	}
	p, err := openPlaced(addrs, levels.Count(), o.replicas, o.tolerance, o.timeout, o.metrics)
	if err != nil {
		return nil, nil, err
	}
	m, err := mover.New(p, mover.Config{
		Scheme:    scheme,
		Levels:    levels,
		Targets:   targets,
		Interval:  o.interval,
		RateLimit: o.rate,
		Seed:      o.seed,
		Metrics:   o.metrics,
	})
	if err != nil {
		p.Close()
		return nil, nil, err
	}
	p.SetMembershipHook(m.Kick)
	return p, m, nil
}

// healCmd heals every object the fleet holds: it re-homes the objects
// the ring displaced and refills those short on their owners, by
// decode-free recombination — one round by default, bounded by 8x
// -timeout, or with -watch the background loop until interrupted.
// Stale copies are reclaimed only after the new owners verify against
// the provisioning targets. Either way the last report is printed — a
// failed round's too, since its partial work is what waits for the
// next round.
func healCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd heal", flag.ContinueOnError)
	var opts healOpts
	opts.register(fs, "addrs", 5*time.Second)
	watch := fs.Bool("watch", false, "keep healing until interrupted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	placed, m, err := opts.healer("heal")
	if err != nil {
		return err
	}
	defer placed.Close()
	if !*watch {
		ctx, cancel := context.WithTimeout(context.Background(), 8*opts.timeout)
		defer cancel()
		rep, err := m.RunOnce(ctx)
		printHealReport(out, rep)
		return err
	}
	m.Start()
	fmt.Fprintf(out, "heal: watching %d daemons every %v (interrupt to stop)\n",
		len(placed.Members()), opts.interval)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Stop(sctx); err != nil {
		return err
	}
	fmt.Fprintf(out, "heal: stopped after %d rounds\n", m.Rounds())
	printHealReport(out, m.LastReport())
	return nil
}

// printHealReport renders one heal round: the plan, one line per planned
// object with its owners' audit and any stale holders, then what the
// round moved and reclaimed.
func printHealReport(out io.Writer, rep mover.Report) {
	if rep.Plan == nil {
		fmt.Fprintln(out, "heal: no round completed yet")
		return
	}
	displaced := 0
	for _, op := range rep.Plan.Objects {
		if len(op.Stale) > 0 {
			displaced++
		}
	}
	fmt.Fprintf(out, "heal: %d objects planned (%d displaced, %d short), %d healed, %d failed\n",
		len(rep.Plan.Objects), displaced, len(rep.Plan.Objects)-displaced, rep.Migrated, rep.Failed)
	for _, op := range rep.Plan.Objects {
		a := op.Audit
		fmt.Fprintf(out, "  %s: critical level %d, %d/%d owners reachable, deficit %d copies",
			op.Object, op.Critical, a.Reachable, a.Reachable+a.Unreachable, a.TotalDeficit())
		if len(op.Stale) > 0 {
			fmt.Fprintf(out, ", stale on %s", strings.Join(op.Stale, ", "))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "heal: regenerated %d + copied %d blocks (%d copies), collected %d bytes, placed %d bytes\n",
		rep.Regenerated, rep.Copied, rep.Copies, rep.BytesCollected, rep.BytesPlaced)
	fmt.Fprintf(out, "heal: %d reclaim deletes removed %d stale blocks\n", rep.DeletesIssued, rep.BlocksReclaimed)
	if len(rep.SkippedLevels) > 0 {
		fmt.Fprintf(out, "heal: skipped levels %v — no usable survivors\n", rep.SkippedLevels)
	}
	if len(rep.Plan.Unreachable) > 0 {
		fmt.Fprintf(out, "heal: unreachable during planning: %s\n", strings.Join(rep.Plan.Unreachable, ", "))
	}
}

// metricsCmd fetches a daemon's /metrics.json snapshot and renders it as
// a human-readable table: counters, gauges, then histograms with their
// count/mean/p50/p95/p99/max columns.
func metricsCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd metrics", flag.ContinueOnError)
	timeout := fs.Duration("timeout", 5*time.Second, "fetch timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: prlcd metrics <observability-addr> (the serve -metrics address)")
	}
	addr := fs.Arg(0)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	snap, err := metrics.Fetch(ctx, addr)
	if err != nil {
		return err
	}
	printSnapshot(out, addr, snap)
	return nil
}

func printSnapshot(out io.Writer, addr string, snap metrics.Snapshot) {
	if snap.Empty() {
		fmt.Fprintf(out, "%s: no metrics recorded yet\n", addr)
		return
	}
	nameWidth := 0
	for _, c := range snap.Counters {
		nameWidth = max(nameWidth, len(c.Name))
	}
	for _, g := range snap.Gauges {
		nameWidth = max(nameWidth, len(g.Name))
	}
	for _, h := range snap.Histograms {
		nameWidth = max(nameWidth, len(h.Name))
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintf(out, "counters:\n")
		for _, c := range snap.Counters {
			fmt.Fprintf(out, "  %-*s %d\n", nameWidth, c.Name, c.Value)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintf(out, "gauges:\n")
		for _, g := range snap.Gauges {
			fmt.Fprintf(out, "  %-*s %d\n", nameWidth, g.Name, g.Value)
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintf(out, "histograms:\n")
		fmt.Fprintf(out, "  %-*s %5s %10s %10s %10s %10s %10s\n",
			nameWidth, "", "count", "mean", "p50", "p95", "p99", "max")
		for _, h := range snap.Histograms {
			fmt.Fprintf(out, "  %-*s %5d %10.0f %10d %10d %10d %10d\n",
				nameWidth, h.Name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
		}
	}
}
