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
	"repro/internal/metrics"
	"repro/internal/mover"
	"repro/internal/repair"
	"repro/internal/store"
)

// RunConfig tunes one scenario execution against a fleet.
type RunConfig struct {
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// OpTimeout bounds each client attempt (default 2s) — short enough
	// that a killed node's ops fail over inside the open-loop window.
	OpTimeout time.Duration
	// SkipScrape disables the HTTP metrics cross-check (fleets without
	// observability addresses get it automatically).
	SkipScrape bool
}

func (rc *RunConfig) logf(format string, args ...any) {
	if rc.Logf != nil {
		rc.Logf(format, args...)
	}
}

// Run executes one scenario against a fleet and returns its SLO report.
// The fleet is handed back healthy: every transport fault is cleared and
// every non-permanent kill restarted before Run returns.
func Run(ctx context.Context, fleet Fleet, sc Scenario, rc RunConfig) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	addrs := fleet.Addrs()
	if sc.Tolerance >= len(addrs) {
		return nil, fmt.Errorf("loadgen: tolerance %d needs more than %d nodes", sc.Tolerance, len(addrs))
	}
	if rc.OpTimeout <= 0 {
		rc.OpTimeout = 2 * time.Second
	}

	// The code under test: one PLC encoder per object over deterministic
	// sources, so the decode spot-check can compare bytes.
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
	var spotSources [][]byte // object 0's source payloads, kept for the bit-exact check
	for i := 0; i < sc.Objects; i++ {
		srcRng := rand.New(rand.NewSource(sc.Seed + int64(i)*7919))
		sources := make([][]byte, sc.Blocks)
		for j := range sources {
			sources[j] = make([]byte, sc.PayloadBytes)
			srcRng.Read(sources[j])
		}
		if i == 0 {
			spotSources = sources
		}
		enc, err := core.NewEncoder(core.PLC, levels, sources)
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
			Addr:        a,
			Dialer:      dialer,
			DialTimeout: time.Second,
			OpTimeout:   rc.OpTimeout,
			Retry:       store.RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
			Seed:        sc.Seed + seedOff,
			Metrics:     clientReg,
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
		MinWrites:   1,
		// Joined spares dial through the same fault-injected transport
		// and metrics registry as the founding members.
		NewClient: func(addr string) (*store.Client, error) { return dial(addr, int64(len(addrs))) },
		Metrics:   clientReg,
	})
	if err != nil {
		return nil, err
	}
	defer placed.Close()

	// Baseline: every object gets a decodable block population before the
	// clock starts, so gets work from op one and the spot-check has a
	// floor even if the run is all gets.
	seedBlocks := sc.SeedBlocks
	if seedBlocks <= 0 {
		seedBlocks = sc.Blocks * 8 / 5
	}
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
	rc.logf("seeded %d objects x %d blocks across %d nodes", sc.Objects, seedBlocks, len(addrs))

	// Chaos: schedule built pure, executed on the wall clock alongside
	// the generator.
	schedule, err := BuildSchedule(sc.Faults, len(addrs), sc.Seed)
	if err != nil {
		return nil, err
	}
	controller := NewController(schedule, newFleetInjector(fleet, dialer, placed.Join, sc.Spares))

	var repairer *repair.Daemon
	if sc.Repair {
		repairer, err = repair.NewObject(placed, objs[0], repair.Config{
			Scheme:      core.PLC,
			Levels:      levels,
			Dist:        seedDist,
			TotalBlocks: seedBlocks,
			Interval:    sc.RepairInterval.D(),
			Seed:        sc.Seed,
			Metrics:     clientReg,
		})
		if err != nil {
			return nil, err
		}
		repairer.Start()
	}

	// Migration: the mover re-homes blocks whenever the ring grows,
	// kicked synchronously by every membership change and throttled so
	// it cannot starve the foreground traffic it shares clients with.
	var mv *mover.Mover
	if sc.Migrate {
		mv, err = mover.New(placed, mover.Config{
			Scheme:      core.PLC,
			Levels:      levels,
			Dist:        seedDist,
			TotalBlocks: seedBlocks,
			Interval:    sc.MigrateInterval.D(),
			RateLimit:   sc.MigrateRateBytes,
			Seed:        sc.Seed,
			Metrics:     clientReg,
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
	rc.logf("running %s: %d ops over %v, %d workers, %d faults", sc.Name, len(ops), sc.Duration.D(), sc.Clients, len(schedule))

	gen := newGenerator(&sc, placed, encoders, objs)
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
	if repairer != nil {
		stopCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		repairer.Stop(stopCtx)
		cancel()
	}
	if mv != nil {
		stopCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := mv.Stop(stopCtx); err != nil {
			rc.logf("mover stop: %v", err)
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
		Scenario:     sc.Name,
		Description:  sc.Description,
		Seed:         sc.Seed,
		Nodes:        len(addrs),
		OpsPlanned:   len(ops),
		Faults:       recs,
		ScheduleHash: ScheduleHash(schedule),
	}
	gen.snapshot(rep, wall)
	if mv != nil {
		rep.Migration = migrationCheck(mv.Rounds(), clientReg)
	}
	rep.Decode = spotCheck(ctx, placed, objs[0], levels, spotSources, sc.Seed, sc.PayloadBytes)
	rep.Scrape = scrapeCheck(ctx, fleet, clientReg, rep.OpsOK, schedule, rc)
	rc.logf("%s done: %d/%d ops ok, decode bit-exact=%v", sc.Name, rep.OpsOK, rep.OpsRun, rep.Decode.BitExact)
	return rep, nil
}

// spotCheck collects the spot-check object from the surviving fleet and
// verifies the level-0 sources decode byte-identical to what the
// generator encoded from — the paper's core promise under churn.
func spotCheck(ctx context.Context, placed *store.Placed, obj core.ObjectID, levels *core.Levels, sources [][]byte, seed int64, payloadLen int) DecodeCheck {
	dc := DecodeCheck{Object: obj.String(), Level0Blocks: levels.Size(0)}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	blocks, err := placed.Collect(cctx, obj, levels.Count()-1)
	if err != nil {
		dc.Err = fmt.Sprintf("collect: %v", err)
		return dc
	}
	dc.BlocksRead = len(blocks)
	res, dec, err := collect.Run(rand.New(rand.NewSource(seed)), core.PLC, levels, blocks, collect.Options{
		Context:      cctx,
		TargetLevels: 1,
		PayloadLen:   payloadLen,
	})
	if err != nil {
		dc.Err = fmt.Sprintf("decode: %v", err)
		return dc
	}
	dc.DecodedLevels = res.DecodedLevels
	if res.DecodedLevels < 1 {
		dc.Err = fmt.Sprintf("level 0 undecodable from %d blocks (%d innovative)", len(blocks), res.Innovative)
		return dc
	}
	got := dec.Sources()
	for i := 0; i < levels.Size(0); i++ {
		if !bytes.Equal(got[i], sources[i]) {
			dc.Err = fmt.Sprintf("level-0 source %d differs from original", i)
			return dc
		}
	}
	dc.BitExact = true
	return dc
}

// migrationCheck folds the mover's cumulative counters out of the
// shared client registry into the report — the registry is the only
// place per-round reports accumulate across the whole run.
func migrationCheck(rounds int, reg *metrics.Registry) *MigrationCheck {
	mc := &MigrationCheck{Rounds: rounds}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return mc
	}
	samples, err := metrics.ParsePromText(&buf)
	if err != nil {
		return mc
	}
	mc.RoundErrors = samples.Value("mover_round_errors_total")
	mc.Kicks = samples.Value("mover_kicks_total")
	mc.ObjectsPlanned = samples.Value("mover_objects_planned_total")
	mc.ObjectsMigrated = samples.Value("mover_objects_migrated_total")
	mc.ObjectErrors = samples.Value("mover_object_errors_total")
	mc.BlocksRegenerated = samples.Value("mover_blocks_regenerated_total")
	mc.BlocksCopied = samples.Value("mover_blocks_copied_total")
	mc.DeletesIssued = samples.Value("mover_deletes_issued_total")
	mc.BlocksReclaimed = samples.Value("mover_blocks_reclaimed_total")
	return mc
}

// scrapeCheck cross-validates the generator's own success count against
// the client registry and each daemon's scraped request totals. Kill
// faults may reset a process-backed daemon's registry, so the
// server-side bound only applies to kill-free schedules.
func scrapeCheck(ctx context.Context, fleet Fleet, clientReg *metrics.Registry, genOK int, schedule []ScheduledFault, rc RunConfig) ScrapeCheck {
	sck := ScrapeCheck{GeneratorOK: genOK}

	var buf bytes.Buffer
	if err := clientReg.WritePrometheus(&buf); err == nil {
		if samples, err := metrics.ParsePromText(&buf); err == nil {
			sck.ClientOpsOK = samples.Value("store_client_ops_ok_total")
		}
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
		if a == "" || rc.SkipScrape || dead[node] {
			continue
		}
		sck.Nodes++
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		samples, err := metrics.Scrape(sctx, a)
		cancel()
		if err != nil {
			sck.ScrapeErrors++
			sck.Detail = fmt.Sprintf("scrape %s: %v", a, err)
			continue
		}
		scraped = true
		sck.ServerOps += samples.SumPrefix("store_server_requests_total")
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
