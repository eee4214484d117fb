// Command prlcd runs the networked priority block store: a daemon
// (`prlcd serve`) plus client subcommands (`prlcd store ...`) that ship
// a file into a replicated daemon fleet with priority-differentiated
// replication and pull it back out, tolerating dead replicas, and a
// maintenance subcommand (`prlcd repair`) that regenerates redundancy
// lost to churn by decode-free recombination of surviving blocks.
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
//	prlcd repair -addrs ... -scheme plc -sizes ... -total 160        # one round
//	prlcd repair -addrs ... -sizes ... -total 160 -watch             # loop
//	prlcd repair -addrs ... -object report.pdf -replicas 3 ...       # one keyed object
//	prlcd serve -addr ... -repair -peers ... -sizes ... -total 160   # serve + repair
//	prlcd migrate -addrs ... -sizes ... -total 160                   # one migration round
//	prlcd migrate -addrs ... -sizes ... -total 160 -watch            # migration loop
//	prlcd serve -addr ... -migrate -peers ... -sizes ... -total 160  # serve + migrate
//	prlcd serve -addr ... -metrics 127.0.0.1:7091                    # + observability
//	prlcd serve -addr ... -data-dir /var/lib/prlcd -retention 24h    # + persistence
//	prlcd metrics 127.0.0.1:7091                                     # metrics table
//	prlcd ring -addrs ... -object report.pdf                         # placement view
//
// `store put` prints the exact `store get` invocation that recovers the
// file, so the decode side needs no side-channel metadata.
//
// Every fleet-facing command goes through the placement ring. With
// `-object NAME`, put/get/repair address one object namespace: its
// blocks land on the object's `-replicas` ring successors, so many
// objects share one fleet without mixing. Without -object they address
// object zero — the key-less namespace — on the ring with R = n, i.e.
// the whole fleet. `prlcd ring` shows the ring — node IDs, ownership
// ranges, and (with -object) an object's replica set.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
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
	"repro/internal/metrics"
	"repro/internal/mover"
	"repro/internal/repair"
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
		return fmt.Errorf("usage: prlcd serve|store|repair|migrate|ring|metrics [flags]")
	}
	switch args[0] {
	case "serve":
		return serve(args[1:], out)
	case "store":
		return storeCmd(args[1:], out)
	case "repair":
		return repairCmd(args[1:], out)
	case "migrate":
		return migrateCmd(args[1:], out)
	case "ring":
		return ringCmd(args[1:], out)
	case "metrics":
		return metricsCmd(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want serve, store, repair, migrate, ring or metrics)", args[0])
	}
}

func serve(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd serve", flag.ContinueOnError)
	var (
		addr         string
		maxConns     int
		maxBlocks    int
		metricsAddr  string
		withRepair   bool
		dataDir      string
		fsyncStr     string
		retention    time.Duration
		segmentBytes int64
		pidFile      string
		opts         healOpts
		withMigrate  bool
	)
	fs.StringVar(&addr, "addr", "127.0.0.1:7071", "listen address")
	fs.IntVar(&maxConns, "max-conns", 64, "maximum concurrent connections")
	fs.IntVar(&maxBlocks, "max-blocks", 0, "maximum stored blocks (0 = unlimited)")
	fs.StringVar(&metricsAddr, "metrics", "", "observability listen address (Prometheus /metrics, /metrics.json, /debug/pprof)")
	fs.BoolVar(&withRepair, "repair", false, "run a repair daemon client loop over -peers alongside serving")
	fs.BoolVar(&withMigrate, "migrate", false, "run a migration mover loop over -peers alongside serving (shares the repair flags)")
	fs.StringVar(&dataDir, "data-dir", "", "persist blocks to segment files under this directory (empty = in-memory)")
	fs.StringVar(&fsyncStr, "fsync", "batch", "disk durability: batch (group commit), always (per put) or none")
	fs.DurationVar(&retention, "retention", 0, "delete disk segments older than this rolling window (0 = keep forever)")
	fs.Int64Var(&segmentBytes, "segment-bytes", 0, "disk segment rotation threshold in bytes (0 = 64 MiB default)")
	fs.StringVar(&pidFile, "pid-file", "", "write the daemon PID here once serving (for process supervisors and chaos controllers)")
	opts.register(fs, "peers", 10*time.Second)
	opts.registerMover(fs)
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
	}
	srv, err := store.NewServer(store.ServerConfig{
		Addr:      addr,
		MaxConns:  maxConns,
		MaxBlocks: maxBlocks,
		Blocks:    engine,
		Metrics:   reg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "prlcd: serving on %s\n", srv.Addr())
	if withRepair || withMigrate {
		// The serve-side client loops share one ring over -peers (which
		// should list every daemon, itself included). The mover's -replicas
		// is the ring's width; a repair loop alone keeps object zero on
		// every peer.
		fail := func(err error) error {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
			return err
		}
		replicas := 0
		if withMigrate {
			replicas = opts.replicas
		}
		placed, err := opts.open("serve -repair/-migrate", replicas)
		if err != nil {
			return fail(err)
		}
		defer placed.Close()
		peers := len(placed.Members())
		if withRepair {
			// This daemon audits and repairs the key-less object in the
			// background while serving its own blocks. Per-daemon jitter in
			// the loop desynchronizes a fleet that all do this.
			d, err := opts.daemon(placed, core.ZeroObject)
			if err != nil {
				return fail(err)
			}
			d.Start()
			fmt.Fprintf(out, "prlcd: repairing %d peers every %v\n", peers, opts.interval)
			defer stopLoop(out, "repair daemon", d)
		}
		if withMigrate {
			// This daemon re-homes displaced objects whenever ring ownership
			// and data placement disagree. Safe to run on every daemon — the
			// mover verifies before reclaiming and deletes are idempotent.
			m, err := opts.mover(placed)
			if err != nil {
				return fail(err)
			}
			m.Start()
			fmt.Fprintf(out, "prlcd: migrating across %d peers every %v\n", peers, opts.interval)
			defer stopLoop(out, "mover", m)
		}
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
func openPlaced(addrs []string, levels, replicas, tolerance, minWrites int, timeout time.Duration, reg *metrics.Registry) (*store.Placed, error) {
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
		MinWrites:   minWrites,
		Metrics:     reg,
	})
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
	}
	return p, err
}

// ringWidth is the R a command opens the ring with for one object: a
// keyed object lives on its -replicas successors, the key-less file
// (object zero) on the whole fleet.
func ringWidth(obj core.ObjectID, replicas int) int {
	if obj == core.ZeroObject {
		return 0
	}
	return replicas
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
	placed, err := openPlaced(addrs, 1, replicas, 0, 1, timeout, nil)
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
		blocks    int
		coded     int
		levelsStr string
		distStr   string
		schemeStr string
		codingStr string
		objectStr string
		replicas  int
		seed      int64
		tolerance int
		minWrites int
		timeout   time.Duration
	)
	fs.StringVar(&addrsStr, "addrs", "", "comma-separated daemon addresses")
	fs.StringVar(&in, "in", "", "input file")
	fs.StringVar(&objectStr, "object", "", "object namespace: a name to hash or canonical obj-<16 hex> (empty = object zero, the key-less file, on every daemon)")
	fs.IntVar(&replicas, "replicas", 3, "ring successors the object is placed on when -object is set")
	fs.IntVar(&blocks, "blocks", 100, "number of source blocks")
	fs.IntVar(&coded, "coded", 0, "number of coded blocks (0 = 1.6x blocks)")
	fs.StringVar(&levelsStr, "levels", "0.1,0.2,0.7", "level fractions, most important first")
	fs.StringVar(&distStr, "dist", "", "priority distribution (default uniform)")
	fs.StringVar(&schemeStr, "scheme", "plc", "coding scheme: rlc, slc or plc")
	fs.StringVar(&codingStr, "coding", "auto", "coefficient generator: auto, dense, sparse, band or chunked (auto picks by generation size)")
	fs.Int64Var(&seed, "seed", 1, "random seed")
	fs.IntVar(&tolerance, "f", 1, "replica losses the last level must survive")
	fs.IntVar(&minWrites, "min-writes", 1, "copies that must land per block")
	fs.DurationVar(&timeout, "timeout", 5*time.Second, "per-attempt timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := cliutil.SplitAddrs(addrsStr)
	if len(addrs) == 0 || in == "" {
		return fmt.Errorf("put: -addrs and -in are required")
	}
	scheme, err := core.ParseScheme(schemeStr)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("put: %s is empty", in)
	}
	if blocks <= 0 {
		return fmt.Errorf("put: -blocks %d, want > 0", blocks)
	}
	if blocks > len(data) {
		blocks = len(data)
	}
	if coded == 0 {
		coded = blocks + (blocks*3+4)/5
	}
	fracs, err := cliutil.ParseFloats(levelsStr)
	if err != nil {
		return fmt.Errorf("put: -levels: %w", err)
	}
	sizes, err := cliutil.FractionsToSizes(fracs, blocks)
	if err != nil {
		return err
	}
	levels, err := core.NewLevels(sizes...)
	if err != nil {
		return err
	}
	var dist core.PriorityDistribution
	if distStr == "" {
		dist = core.NewUniformDistribution(levels.Count())
	} else {
		vals, err := cliutil.ParseFloats(distStr)
		if err != nil {
			return fmt.Errorf("put: -dist: %w", err)
		}
		dist = core.PriorityDistribution(vals)
	}
	if err := dist.Validate(levels); err != nil {
		return err
	}
	coding, err := core.ParseCoding(codingStr)
	if err != nil {
		return err
	}
	if coding == core.CodingAuto {
		coding = core.AutoCoding(blocks)
	}

	sources := cliutil.SplitPayloads(data, blocks)
	var (
		cb         []*core.CodedBlock
		replLevels = levels.Count()
		layout     *core.ChunkLayout
	)
	if coding == core.CodingChunked {
		// Chunked blocks carry their chunk index in the Level field. Chunks
		// cover the file front to back, so the store's level-decaying
		// replication naturally keeps more copies of the file prefix —
		// replLevels becomes the chunk count.
		layout, err = core.DefaultChunkLayout(blocks)
		if err != nil {
			return err
		}
		replLevels = layout.Count
		cenc, err := core.NewChunkedEncoder(layout, sources)
		if err != nil {
			return err
		}
		cb, err = cenc.EncodeBatch(rand.New(rand.NewSource(seed)), coded)
		if err != nil {
			return err
		}
	} else {
		var opts []core.EncoderOption
		switch coding {
		case core.CodingSparse:
			opts = append(opts, core.WithSparsity(core.LogSparsity(blocks)))
		case core.CodingBand:
			opts = append(opts, core.WithBand(core.DefaultBandWidth))
		}
		enc, err := core.NewEncoder(scheme, levels, sources, opts...)
		if err != nil {
			return err
		}
		cb, err = enc.EncodeBatch(rand.New(rand.NewSource(seed)), dist, coded)
		if err != nil {
			return err
		}
	}

	obj, err := core.ParseObjectID(objectStr)
	if err != nil {
		return fmt.Errorf("put: -object: %w", err)
	}
	// Stamp every block with the object and route through the placement
	// ring: the blocks land on the object's -replicas ring successors, or
	// for the key-less file (object zero) on the whole fleet.
	for _, b := range cb {
		b.Object = obj
	}
	placed, err := openPlaced(addrs, replLevels, ringWidth(obj, replicas), tolerance, minWrites, timeout, nil)
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
	objArgs := ""
	if obj != core.ZeroObject {
		objArgs = fmt.Sprintf(" -object %s -replicas %d", objectStr, placed.Replication())
	}
	if coding == core.CodingChunked {
		fmt.Fprintf(out, "recover with:\n  prlcd store get -addrs %s -out FILE -sizes %s -size %d -chunks %d,%d%s\n",
			addrsStr, intsCSV(sizes), len(data), layout.Size, layout.Overlap, objArgs)
	} else {
		fmt.Fprintf(out, "recover with:\n  prlcd store get -addrs %s -out FILE -scheme %s -sizes %s -size %d%s\n",
			addrsStr, schemeStr, intsCSV(sizes), len(data), objArgs)
	}
	return nil
}

func getCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd store get", flag.ContinueOnError)
	var (
		addrsStr  string
		outPath   string
		schemeStr string
		sizesStr  string
		chunksStr string
		objectStr string
		replicas  int
		fileSize  int64
		seed      int64
		timeout   time.Duration
	)
	fs.StringVar(&addrsStr, "addrs", "", "comma-separated daemon addresses")
	fs.StringVar(&outPath, "out", "", "output file for the recovered prefix")
	fs.StringVar(&objectStr, "object", "", "object namespace from put time: a name to hash or canonical obj-<16 hex>")
	fs.IntVar(&replicas, "replicas", 3, "ring successors used at put time when -object is set")
	fs.StringVar(&schemeStr, "scheme", "plc", "coding scheme used at put time")
	fs.StringVar(&sizesStr, "sizes", "", "per-level block counts from put time")
	fs.StringVar(&chunksStr, "chunks", "", "size,overlap of the chunk layout when put used -coding chunked")
	fs.Int64Var(&fileSize, "size", 0, "original file size (0 = keep padding)")
	fs.Int64Var(&seed, "seed", 1, "random seed for the processing order")
	fs.DurationVar(&timeout, "timeout", 5*time.Second, "per-attempt timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := cliutil.SplitAddrs(addrsStr)
	if len(addrs) == 0 || outPath == "" || sizesStr == "" {
		return fmt.Errorf("get: -addrs, -out and -sizes are required")
	}
	scheme, err := core.ParseScheme(schemeStr)
	if err != nil {
		return err
	}
	sizes, err := cliutil.ParseInts(sizesStr)
	if err != nil {
		return fmt.Errorf("get: -sizes: %w", err)
	}
	levels, err := core.NewLevels(sizes...)
	if err != nil {
		return err
	}

	obj, err := core.ParseObjectID(objectStr)
	if err != nil {
		return fmt.Errorf("get: -object: %w", err)
	}
	// Resolve the object's shard on the same ring geometry the put used
	// and collect only that namespace's blocks — object zero for the
	// key-less file, never the all-objects wildcard: the decoder cannot
	// tell two objects' blocks apart.
	placed, err := openPlaced(addrs, levels.Count(), ringWidth(obj, replicas), 1, 1, timeout, nil)
	if err != nil {
		return err
	}
	defer placed.Close()
	ctx := context.Background()
	blocks, err := placed.Collect(ctx, obj, -1)
	if err != nil {
		return err
	}
	if len(blocks) == 0 {
		return fmt.Errorf("get: daemons hold no blocks")
	}
	var (
		sourcesOut [][]byte
		decoded    int
		complete   bool
		levelsNote string
	)
	if chunksStr != "" {
		chunkDims, err := cliutil.ParseInts(chunksStr)
		if err != nil || len(chunkDims) != 2 {
			return fmt.Errorf("get: -chunks wants size,overlap, got %q", chunksStr)
		}
		layout, err := core.NewChunkLayout(levels.Total(), chunkDims[0], chunkDims[1])
		if err != nil {
			return err
		}
		cdec, err := core.NewChunkedDecoder(layout, len(blocks[0].Payload))
		if err != nil {
			return err
		}
		for _, b := range blocks {
			if _, err := cdec.Add(b); err != nil {
				fmt.Fprintf(out, "get: skipping block: %v\n", err)
			}
			if cdec.Complete() {
				break
			}
		}
		sourcesOut = cdec.Sources()
		decoded = cdec.DecodedCount()
		complete = cdec.Complete()
		levelsNote = "chunked"
	} else {
		res, dec, err := collect.Run(rand.New(rand.NewSource(seed)), scheme, levels, blocks,
			collect.Options{Context: ctx, PayloadLen: len(blocks[0].Payload)})
		if err != nil {
			return err
		}
		sourcesOut = dec.Sources()
		decoded = res.DecodedBlocks
		complete = res.Complete
		levelsNote = fmt.Sprintf("%d levels", res.DecodedLevels)
	}

	var buf []byte
	for _, p := range sourcesOut {
		if p == nil {
			break
		}
		buf = append(buf, p...)
	}
	if fileSize > 0 && int64(len(buf)) > fileSize {
		buf = buf[:fileSize]
	}
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "collected %d blocks from %d daemons; decoded %d/%d source blocks (%s)\n",
		len(blocks), len(addrs), decoded, levels.Total(), levelsNote)
	fmt.Fprintf(out, "wrote %d bytes to %s", len(buf), outPath)
	if complete {
		fmt.Fprint(out, " (complete file)")
	} else if fileSize > 0 {
		fmt.Fprintf(out, " (partial recovery: %.1f%% of the file)", 100*float64(len(buf))/float64(fileSize))
	}
	fmt.Fprintln(out)
	return nil
}

// healOpts collects the fleet, code and loop flags shared by `prlcd
// repair`, `prlcd migrate` and `prlcd serve -repair/-migrate`.
type healOpts struct {
	addrsStr   string
	schemeStr  string
	sizesStr   string
	distStr    string
	total      int
	targetsStr string
	tolerance  int
	minWrites  int
	budget     int
	sample     int
	replicas   int
	seed       int64
	timeout    time.Duration
	interval   time.Duration
	rate       int64             // mover only
	workers    int               // mover only
	metrics    *metrics.Registry // set programmatically, not a flag

	// The code the flags describe, parsed by open.
	scheme  core.Scheme
	levels  *core.Levels
	dist    core.PriorityDistribution
	targets []int
}

func (o *healOpts) register(fs *flag.FlagSet, addrsFlag string, interval time.Duration) {
	fs.StringVar(&o.addrsStr, addrsFlag, "", "comma-separated daemon addresses of the fleet")
	fs.StringVar(&o.schemeStr, "scheme", "plc", "coding scheme used at put time")
	fs.StringVar(&o.sizesStr, "sizes", "", "per-level source block counts from put time")
	fs.StringVar(&o.distStr, "dist", "", "priority distribution from put time (default uniform)")
	fs.IntVar(&o.total, "total", 0, "coded blocks at full provisioning (M)")
	fs.StringVar(&o.targetsStr, "targets", "", "exact per-level distinct-block targets (overrides -dist/-total)")
	fs.IntVar(&o.tolerance, "f", 1, "replica losses the last level must survive")
	fs.IntVar(&o.minWrites, "min-writes", 1, "copies that must land per regenerated block")
	fs.IntVar(&o.budget, "budget", 0, "max blocks regenerated per round (0 = default)")
	fs.IntVar(&o.sample, "sample", 0, "survivors sampled per recombination (0 = default)")
	fs.IntVar(&o.replicas, "replicas", 3, "ring successors each keyed object is placed on")
	fs.Int64Var(&o.seed, "seed", 1, "random seed for recombination")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-attempt timeout")
	fs.DurationVar(&o.interval, "interval", interval, "pause between repair rounds")
}

// registerMover adds the flags only the migration mover reads.
func (o *healOpts) registerMover(fs *flag.FlagSet) {
	fs.Int64Var(&o.rate, "rate", 8<<20, "migration byte-rate cap in bytes/second (0 = unlimited)")
	fs.IntVar(&o.workers, "workers", 2, "objects migrated concurrently")
}

// code parses the shared code-description flags: scheme, levels, and
// the provisioning targets (explicit, or a distribution over -total).
func (o *healOpts) code(name string) (core.Scheme, *core.Levels, core.PriorityDistribution, []int, error) {
	scheme, err := core.ParseScheme(o.schemeStr)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	sizes, err := cliutil.ParseInts(o.sizesStr)
	if err != nil {
		return 0, nil, nil, nil, fmt.Errorf("%s: -sizes: %w", name, err)
	}
	levels, err := core.NewLevels(sizes...)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	var dist core.PriorityDistribution
	var targets []int
	if o.targetsStr != "" {
		if targets, err = cliutil.ParseInts(o.targetsStr); err != nil {
			return 0, nil, nil, nil, fmt.Errorf("%s: -targets: %w", name, err)
		}
	} else {
		if o.total <= 0 {
			return 0, nil, nil, nil, fmt.Errorf("%s: -total (or -targets) is required", name)
		}
		if o.distStr == "" {
			dist = core.NewUniformDistribution(levels.Count())
		} else {
			vals, err := cliutil.ParseFloats(o.distStr)
			if err != nil {
				return 0, nil, nil, nil, fmt.Errorf("%s: -dist: %w", name, err)
			}
			dist = core.PriorityDistribution(vals)
		}
	}
	return scheme, levels, dist, targets, nil
}

// open parses the code flags and dials the fleet: the one ring a
// command's repair daemon and mover both run over, `replicas` wide (see
// openPlaced).
func (o *healOpts) open(name string, replicas int) (*store.Placed, error) {
	addrs := cliutil.SplitAddrs(o.addrsStr)
	if len(addrs) == 0 || o.sizesStr == "" {
		return nil, fmt.Errorf("%s: fleet addresses and -sizes are required", name)
	}
	var err error
	if o.scheme, o.levels, o.dist, o.targets, err = o.code(name); err != nil {
		return nil, err
	}
	return openPlaced(addrs, o.levels.Count(), replicas, o.tolerance, o.minWrites, o.timeout, o.metrics)
}

// daemon constructs the repair daemon maintaining obj on the opened ring.
func (o *healOpts) daemon(p *store.Placed, obj core.ObjectID) (*repair.Daemon, error) {
	return repair.NewObject(p, obj, repair.Config{
		Scheme:      o.scheme,
		Levels:      o.levels,
		Dist:        o.dist,
		TotalBlocks: o.total,
		Targets:     o.targets,
		Interval:    o.interval,
		BlockBudget: o.budget,
		SampleSize:  o.sample,
		Seed:        o.seed,
		Metrics:     o.metrics,
	})
}

// mover constructs the migration mover over the opened ring, wired to
// the membership hook so ring changes kick immediate rounds.
func (o *healOpts) mover(p *store.Placed) (*mover.Mover, error) {
	m, err := mover.New(p, mover.Config{
		Scheme:      o.scheme,
		Levels:      o.levels,
		Dist:        o.dist,
		TotalBlocks: o.total,
		Targets:     o.targets,
		Interval:    o.interval,
		Workers:     o.workers,
		RateLimit:   o.rate,
		SampleSize:  o.sample,
		Seed:        o.seed,
		Metrics:     o.metrics,
	})
	if err != nil {
		return nil, err
	}
	p.SetMembershipHook(m.Kick)
	return m, nil
}

// migrateCmd diffs data placement against ring ownership and re-homes
// displaced objects — one round by default, a background loop with
// -watch. Old copies are reclaimed only after the new owners verify
// against the provisioning targets.
func migrateCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd migrate", flag.ContinueOnError)
	var opts healOpts
	opts.register(fs, "addrs", 5*time.Second)
	opts.registerMover(fs)
	watch := fs.Bool("watch", false, "keep migrating until interrupted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	placed, err := opts.open("migrate", opts.replicas)
	if err != nil {
		return err
	}
	defer placed.Close()
	m, err := opts.mover(placed)
	if err != nil {
		return err
	}
	return runOrWatch(out, "migrate", m.Loop, *watch, &opts, printMigrateReport)
}

func printMigrateReport(out io.Writer, rep mover.Report) {
	if rep.Plan == nil {
		fmt.Fprintln(out, "migrate: no round completed yet")
		return
	}
	fmt.Fprintf(out, "migrate: %d objects displaced, %d migrated, %d failed\n",
		len(rep.Plan.Objects), rep.Migrated, rep.Failed)
	for _, op := range rep.Plan.Objects {
		fmt.Fprintf(out, "  %s: %d stale holders (%s), critical level %d\n",
			op.Object, len(op.Stale), strings.Join(op.Stale, ", "), op.Critical)
	}
	fmt.Fprintf(out, "migrate: regenerated %d + copied %d blocks (%d copies), collected %d bytes, placed %d bytes\n",
		rep.Regenerated, rep.Copied, rep.Copies, rep.BytesCollected, rep.BytesPlaced)
	fmt.Fprintf(out, "migrate: %d reclaim deletes removed %d stale blocks\n",
		rep.DeletesIssued, rep.BlocksReclaimed)
	if n := len(rep.SkippedLevels); n > 0 {
		fmt.Fprintf(out, "migrate: %d level transfers skipped — no surviving blocks\n", n)
	}
	if len(rep.Plan.Unreachable) > 0 {
		fmt.Fprintf(out, "migrate: unreachable during planning: %s\n", strings.Join(rep.Plan.Unreachable, ", "))
	}
}

// repairCmd audits one object's owners against its provisioning targets
// and regenerates missing redundancy by decode-free recombination — one
// round by default, a background loop with -watch. With -object that is
// a keyed object on its -replicas ring successors; without, object zero
// (the key-less file) on all of -addrs.
func repairCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcd repair", flag.ContinueOnError)
	var opts healOpts
	opts.register(fs, "addrs", 10*time.Second)
	objectStr := fs.String("object", "", "object to repair: a name to hash or canonical obj-<16 hex> (empty = object zero, the key-less file, on every daemon)")
	watch := fs.Bool("watch", false, "keep repairing until interrupted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	obj, err := core.ParseObjectID(*objectStr)
	if err != nil {
		return fmt.Errorf("repair: -object: %w", err)
	}
	placed, err := opts.open("repair", ringWidth(obj, opts.replicas))
	if err != nil {
		return err
	}
	defer placed.Close()
	d, err := opts.daemon(placed, obj)
	if err != nil {
		return err
	}
	return runOrWatch(out, "repair", d.Loop, *watch, &opts, printRepairReport)
}

// runOrWatch is the tail `prlcd repair` and `prlcd migrate` share: one
// round by default, bounded by 8x -timeout, or with -watch the
// background loop until interrupted; either way the last report is
// printed.
func runOrWatch[R any](out io.Writer, name string, l *repair.Loop[R], watch bool, opts *healOpts, print func(io.Writer, R)) error {
	if !watch {
		ctx, cancel := context.WithTimeout(context.Background(), 8*opts.timeout)
		defer cancel()
		rep, err := l.RunOnce(ctx)
		if err != nil {
			return err
		}
		print(out, rep)
		return nil
	}
	l.Start()
	fmt.Fprintf(out, "%s: watching %d daemons every %v (interrupt to stop)\n",
		name, len(cliutil.SplitAddrs(opts.addrsStr)), opts.interval)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.Stop(sctx); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: stopped after %d rounds\n", name, l.Rounds())
	print(out, l.LastReport())
	return nil
}

// stopLoop is the deferred shutdown of a serve-side repair or migration
// loop: let the in-flight round finish, within 30 s.
func stopLoop(out io.Writer, what string, l interface {
	Stop(context.Context) error
	Rounds() int
}) {
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.Stop(sctx); err != nil {
		fmt.Fprintf(out, "prlcd: %s stop: %v\n", what, err)
		return
	}
	fmt.Fprintf(out, "prlcd: %s stopped after %d rounds\n", what, l.Rounds())
}

func printRepairReport(out io.Writer, rep repair.Report) {
	a := rep.Audit
	if a == nil {
		fmt.Fprintln(out, "repair: no round completed yet")
		return
	}
	fmt.Fprintf(out, "audit: %d/%d replicas reachable, total deficit %d copies\n",
		a.Reachable, a.Reachable+a.Unreachable, a.TotalDeficit())
	for _, lr := range a.Levels {
		fmt.Fprintf(out, "  level %d: %d/%d copies (x%d replication), deficit %d\n",
			lr.Level, lr.HaveCopies, lr.WantCopies, lr.Replicas, lr.Deficit)
	}
	fmt.Fprintf(out, "repair: regenerated %d blocks (%d copies), collected %d bytes, placed %d bytes\n",
		rep.Regenerated, rep.Copies, rep.BytesCollected, rep.BytesPlaced)
	if len(rep.SkippedLevels) > 0 {
		fmt.Fprintf(out, "repair: skipped levels %v — no usable survivors\n", rep.SkippedLevels)
	}
	if rep.Truncated {
		fmt.Fprintln(out, "repair: block budget exhausted; run again to continue")
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics.json", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("metrics: fetch %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: %s returned %s", addr, resp.Status)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("metrics: decode snapshot from %s: %w", addr, err)
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

func intsCSV(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(x)
	}
	return s
}
