package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cliutil"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/mover"
	"repro/internal/store"
)

// opTimeout bounds each client attempt — short enough that a killed
// node's ops fail over inside the open-loop window.
const opTimeout = 2 * time.Second

// Run executes one scenario against a fleet and returns its SLO report;
// logf, when non-nil, receives progress lines. The fleet is handed back
// healthy: every transport fault is cleared and every non-permanent kill
// restarted before Run returns.
func Run(ctx context.Context, fleet Fleet, sc Scenario, logf func(format string, args ...any)) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	addrs := fleet.Addrs()
	if sc.Tolerance >= len(addrs) {
		return nil, fmt.Errorf("loadgen: tolerance %d needs more than %d nodes", sc.Tolerance, len(addrs))
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The code under test: one PLC encoder per object over deterministic
	// sources, kept so the decode spot-check can compare every object's
	// bytes.
	sizes, err := cliutil.FractionsToSizes(sc.LevelFractions, sc.Blocks)
	if err != nil {
		return nil, fmt.Errorf("loadgen: level_fractions: %w", err)
	}
	levels, err := core.NewLevels(sizes...)
	if err != nil {
		return nil, err
	}
	encoders := make([]*core.Encoder, sc.Objects)
	objs := make([]core.ObjectID, sc.Objects)
	sources := make([][][]byte, sc.Objects)
	for i := 0; i < sc.Objects; i++ {
		srcRng := rand.New(rand.NewSource(sc.Seed + int64(i)*7919))
		sources[i] = make([][]byte, sc.Blocks)
		for j := range sources[i] {
			sources[i][j] = make([]byte, sc.PayloadBytes)
			srcRng.Read(sources[i][j])
		}
		enc, err := core.NewEncoder(core.PLC, levels, sources[i])
		if err != nil {
			return nil, err
		}
		encoders[i] = enc
		objs[i] = core.NamedObject(fmt.Sprintf("load/%s/%d", sc.Name, i))
	}

	// All traffic flows through one FaultDialer — the chaos controller's
	// transport hooks — and one client registry for the scrape check.
	dialer := store.NewFaultDialer(nil, store.FaultConfig{Seed: sc.Seed})
	clientReg := metrics.NewRegistry()
	dial := func(a string, seedOff int64) (*store.Client, error) {
		return store.NewClient(store.ClientConfig{
			Addr:      a,
			Dialer:    dialer,
			OpTimeout: opTimeout,
			Seed:      sc.Seed + seedOff,
			Metrics:   clientReg,
		})
	}

	// Every scenario runs on the placement ring: the founding members are
	// the fleet minus its spares (which join faults add mid-run), and
	// Replication 0 means the whole founding ring — a flat fleet is the
	// ring with R = n.
	ring := len(addrs) - sc.Spares
	if ring <= sc.Tolerance {
		return nil, fmt.Errorf("loadgen: %d spares leave a %d-node ring for tolerance %d", sc.Spares, ring, sc.Tolerance)
	}
	replication := sc.Replication
	if replication == 0 {
		replication = ring
	}
	ringClients := make([]*store.Client, ring)
	for i := 0; i < ring; i++ {
		if ringClients[i], err = dial(addrs[i], int64(i)); err != nil {
			return nil, err
		}
	}
	placed, err := store.NewPlaced(ringClients, levels.Count(), store.PlacedConfig{
		Replication: replication,
		Tolerance:   sc.Tolerance,
		// Joined spares dial through the same fault-injected transport
		// and metrics registry as the founding members.
		NewClient: func(addr string) (*store.Client, error) { return dial(addr, int64(len(addrs))) },
		Metrics:   clientReg,
	})
	if err != nil {
		return nil, err
	}
	defer placed.Close()

	// Baseline: every object gets a decodable block population of 1.6x
	// its sources before the clock starts, so gets work from op one and
	// the spot-check has a floor even if the run is all gets.
	seedBlocks := sc.Blocks * 8 / 5
	seedDist := core.NewUniformDistribution(levels.Count())
	for i := range objs {
		rng := rand.New(rand.NewSource(sc.Seed ^ int64(i+1)))
		blocks, err := encoders[i].EncodeBatch(rng, seedDist, seedBlocks)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			b.Object = objs[i]
		}
		if _, err := placed.PutAll(ctx, blocks); err != nil {
			return nil, fmt.Errorf("loadgen: seeding object %d: %w", i, err)
		}
	}
	logf("seeded %d objects x %d blocks across %d nodes", sc.Objects, seedBlocks, len(addrs))

	// Chaos: schedule built pure, executed on the wall clock alongside
	// the generator.
	schedule, err := BuildSchedule(sc.Faults, len(addrs), sc.Seed)
	if err != nil {
		return nil, err
	}
	controller := NewController(schedule, newFleetInjector(fleet, dialer, placed.Join, sc.Spares))

	targets, err := dist.Apportion(seedDist, seedBlocks)
	if err != nil {
		return nil, err
	}
	// Healing: the mover re-homes blocks whenever the ring changes and
	// refills every object short on its owners, kicked synchronously by
	// every membership change and throttled so it cannot starve the
	// foreground traffic it shares clients with.
	var mv *mover.Mover
	if sc.Heal {
		mv, err = mover.New(placed, mover.Config{
			Scheme:    core.PLC,
			Levels:    levels,
			Targets:   targets,
			Interval:  sc.HealInterval.D(),
			RateLimit: sc.HealRateBytes,
			Seed:      sc.Seed,
			Metrics:   clientReg,
		})
		if err != nil {
			return nil, err
		}
		placed.SetMembershipHook(mv.Kick)
		mv.Start()
	}

	ops, err := BuildOps(&sc)
	if err != nil {
		return nil, err
	}
	logf("running %s: %d ops over %v, %d workers, %d faults", sc.Name, len(ops), sc.Duration.D(), sc.Clients, len(schedule))

	gen := &generator{sc: &sc, placed: placed, encoders: encoders, objs: objs}
	start := time.Now()
	chaosCtx, stopChaos := context.WithCancel(ctx)
	recsCh := make(chan []FaultRecord, 1)
	go func() { recsCh <- controller.Run(chaosCtx, start) }()

	gen.run(ctx, ops, start)
	wall := time.Since(start)

	// Generator done: cancel the chaos clock so outstanding reverts fire
	// immediately, then wait for the controller (its return is the
	// no-leaked-goroutines barrier).
	stopChaos()
	recs := <-recsCh
	if mv != nil {
		stopCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := mv.Stop(stopCtx); err != nil {
			logf("mover stop: %v", err)
		}
		cancel()
	}
	// Belt and braces: leave the transport clean even if a revert failed.
	for _, a := range addrs {
		dialer.Heal(a)
	}
	dialer.SetCorruptProb(0)
	dialer.SetDelayProb(0)

	rep := &Report{
		Scenario:        sc.Name,
		Seed:            sc.Seed,
		Nodes:           len(addrs),
		WallSeconds:     wall.Seconds(),
		OpsPlanned:      len(ops),
		OpsRun:          int(gen.ran.Load()),
		ClientErrors:    int(gen.errs.Load()),
		OverloadDropped: int(gen.dropped.Load()),
		Faults:          recs,
		ScheduleHash:    ScheduleHash(schedule),
	}
	rep.OpsOK = rep.OpsRun - rep.ClientErrors
	if mv != nil {
		rep.Heal = healCheck(mv.Rounds(), clientReg)
	}
	rep.Decode = decodeCheck(ctx, placed, objs, levels, sources, sc.Seed, sc.PayloadBytes)
	rep.Scrape = scrapeCheck(ctx, fleet, clientReg, rep.OpsOK, schedule)
	logf("%s done: %d/%d ops ok, decode bit-exact=%v", sc.Name, rep.OpsOK, rep.OpsRun, rep.Decode.BitExact)
	return rep, nil
}

// decodeCheck spot-checks every object in turn and reports the first
// one that fails.
func decodeCheck(ctx context.Context, placed *store.Placed, objs []core.ObjectID, levels *core.Levels, sources [][][]byte, seed int64, payloadLen int) DecodeCheck {
	dc := DecodeCheck{Level0Blocks: levels.Size(0)}
	for i, obj := range objs {
		dc.Objects++
		read, err := spotCheck(ctx, placed, obj, levels, sources[i], seed, payloadLen)
		dc.BlocksRead += read
		if err != nil {
			dc.Object, dc.Err = obj.String(), err.Error()
			return dc
		}
	}
	dc.BitExact = true
	return dc
}

// spotCheck collects one object from the surviving fleet and verifies
// its level-0 sources decode byte-identical to what the generator
// encoded from — the paper's core promise under churn. It returns how
// many blocks it read.
func spotCheck(ctx context.Context, placed *store.Placed, obj core.ObjectID, levels *core.Levels, sources [][]byte, seed int64, payloadLen int) (int, error) {
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	blocks, err := placed.Collect(cctx, obj, 0)
	if err != nil {
		return 0, fmt.Errorf("collect: %w", err)
	}
	dec, err := core.NewDecoder(core.PLC, levels, payloadLen)
	if err != nil {
		return len(blocks), fmt.Errorf("decode: %w", err)
	}
	res, err := collect.Run(collect.Shuffle(rand.New(rand.NewSource(seed)), blocks), dec,
		collect.Options{Context: cctx, TargetLevels: 1})
	if err != nil {
		return len(blocks), fmt.Errorf("decode: %w", err)
	}
	if res.DecodedLevels < 1 {
		return len(blocks), fmt.Errorf("level 0 undecodable from %d blocks (%d innovative, %d rejected)",
			len(blocks), res.Innovative, len(res.Rejected))
	}
	got := dec.Sources()
	for i := 0; i < levels.Size(0); i++ {
		if !bytes.Equal(got[i], sources[i]) {
			return len(blocks), fmt.Errorf("level-0 source %d differs from original", i)
		}
	}
	return len(blocks), nil
}

// healCheck folds the mover's cumulative counters out of the
// shared client registry into the report — the registry is the only
// place per-round reports accumulate across the whole run.
func healCheck(rounds int, reg *metrics.Registry) *HealCheck {
	snap := reg.Snapshot()
	count := func(name string) float64 { return float64(snap.CounterTotal(name)) }
	return &HealCheck{
		Rounds:            rounds,
		RoundErrors:       count("mover_round_errors_total"),
		Kicks:             count("mover_kicks_total"),
		ObjectsPlanned:    count("mover_objects_planned_total"),
		ObjectsHealed:     count("mover_objects_migrated_total"),
		ObjectErrors:      count("mover_object_errors_total"),
		BlocksRegenerated: count("mover_blocks_regenerated_total"),
		BlocksCopied:      count("mover_blocks_copied_total"),
		DeletesIssued:     count("mover_deletes_issued_total"),
		BlocksReclaimed:   count("mover_blocks_reclaimed_total"),
	}
}

// scrapeCheck cross-validates the generator's own success count against
// the client registry and each daemon's /metrics.json request totals.
// Kill faults may reset a process-backed daemon's registry, so the
// server-side bound only applies to kill-free schedules.
func scrapeCheck(ctx context.Context, fleet Fleet, clientReg *metrics.Registry, genOK int, schedule []ScheduledFault) ScrapeCheck {
	sck := ScrapeCheck{
		GeneratorOK: genOK,
		ClientOpsOK: float64(clientReg.Snapshot().CounterTotal("store_client_ops_ok_total")),
	}

	hasKills := false
	dead := map[int]bool{}
	for _, f := range schedule {
		if f.Kind == "kill" {
			hasKills = true
			if f.RevertAt < 0 {
				// A permanent kill leaves this node down at scrape time by
				// design; its endpoint refusing connections is not a finding.
				dead[f.Node] = true
			}
		}
	}
	maddrs := fleet.MetricsAddrs()
	scraped := false
	for node, a := range maddrs {
		if dead[node] {
			continue
		}
		sck.Nodes++
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		snap, err := metrics.Fetch(sctx, a)
		cancel()
		if err != nil {
			sck.ScrapeErrors++
			sck.Detail = fmt.Sprintf("scrape %s: %v", a, err)
			continue
		}
		scraped = true
		sck.ServerOps += float64(snap.CounterTotal("store_server_requests_total"))
	}

	switch {
	case sck.ClientOpsOK < float64(genOK):
		sck.Detail = fmt.Sprintf("client registry saw %g ok ops, generator counted %d", sck.ClientOpsOK, genOK)
	case sck.ScrapeErrors > 0:
		// Detail already set by the failing scrape.
	case scraped && !hasKills && sck.ServerOps < float64(genOK):
		sck.Detail = fmt.Sprintf("fleet served %g requests, generator completed %d ops", sck.ServerOps, genOK)
	default:
		sck.Consistent = true
	}
	return sck
}
