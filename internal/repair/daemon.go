package repair

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Config parameterizes a repair Daemon.
type Config struct {
	// Object is the namespace the daemon maintains; audits, collects and
	// regenerated blocks are all scoped to it. The zero value is the
	// legacy key-less namespace, so pre-namespace deployments repair
	// unchanged. A daemon maintains exactly one namespace (recombining
	// across objects would corrupt both); run one daemon per object.
	Object core.ObjectID
	// Scheme and Levels describe the code the store holds.
	Scheme core.Scheme
	Levels *core.Levels
	// Dist and TotalBlocks (or Targets) define the audit's provisioning
	// targets — see AuditConfig.
	Dist        core.PriorityDistribution
	TotalBlocks int
	Targets     []int
	// Interval is the pause between successful rounds; failed rounds
	// back off from it, doubling up to 16x. Default 2s.
	Interval time.Duration
	// BlockBudget caps the blocks regenerated per round, so one huge
	// deficit cannot starve the critical levels of later rounds (the
	// budget is spent most-critical-level-first). Default 64.
	BlockBudget int
	// SampleSize is how many surviving blocks feed each recombination.
	// Small samples keep repair bandwidth near the regenerated volume;
	// larger ones raise the entropy of each regenerated block. Default 8.
	SampleSize int
	// Seed seeds the recombination generator (0 means 1), so a repair
	// history is reproducible given a reproducible fleet — whether the
	// loop or RunOnce drives the rounds: the loop's jitter draws from a
	// generator of its own.
	Seed int64
	// Metrics, when non-nil, receives round counters, regeneration
	// volumes, and backoff state (see DESIGN.md §10).
	Metrics *metrics.Registry
}

// roundTimeout bounds one loop-driven audit+repair round (the default
// of the RoundTimeout knob nobody set).
const roundTimeout = 30 * time.Second

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.BlockBudget <= 0 {
		c.BlockBudget = 64
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Report summarizes one repair round.
type Report struct {
	// Audit is the inventory scan the round acted on.
	Audit *Audit
	// Tally is what the round's fill moved: Regenerated, Copies,
	// BytesCollected, BytesPlaced, SkippedLevels, Truncated. Repair has
	// no copy path, so Copied stays 0.
	Tally
}

// Daemon is the background maintenance loop: every interval it audits
// the fleet and regenerates missing redundancy by recombination,
// most-critical-level-first. Failed rounds back off exponentially with
// jitter. The daemon never decodes: its only data operations are
// collect, recombine, put. Start, Stop, Kick, Rounds and LastReport
// come from the embedded Loop.
type Daemon struct {
	*Loop[Report]
	// shard resolves the replica set each round operates on: constant
	// for a static Replicated store, re-resolved through the placement
	// ring for an object shard — so repair follows membership churn.
	shard   func() (*store.Replicated, error)
	cfg     Config
	targets []int // cfg's provisioning targets, resolved once
	// rng is the recombination generator, one per daemon across rounds;
	// rounds are serialized by the Loop, which is all that guards it.
	rng       *rand.Rand
	truncated *metrics.Counter
}

// New validates the configuration and returns a stopped daemon over a
// static replica set; call Start to launch the loop, or RunOnce to
// drive rounds manually.
func New(r *store.Replicated, cfg Config) (*Daemon, error) {
	if r == nil {
		return nil, fmt.Errorf("repair: nil replicated store")
	}
	return newDaemon(func() (*store.Replicated, error) { return r, nil }, r.Levels(), cfg)
}

// NewObject returns a daemon maintaining one object on a placement
// ring: each round re-resolves the object's shard, so repair follows
// the ring through membership churn — regenerated blocks land on the
// nodes that own the object now, not the ones that owned it at start.
func NewObject(p *store.Placed, obj core.ObjectID, cfg Config) (*Daemon, error) {
	if p == nil {
		return nil, fmt.Errorf("repair: nil placed store")
	}
	if obj == core.AllObjects {
		return nil, fmt.Errorf("repair: the all-objects wildcard names no shard")
	}
	cfg.Object = obj
	return newDaemon(func() (*store.Replicated, error) { return p.Shard(obj) }, p.Levels(), cfg)
}

func newDaemon(shard func() (*store.Replicated, error), levels int, cfg Config) (*Daemon, error) {
	if !cfg.Scheme.Valid() {
		return nil, fmt.Errorf("repair: invalid scheme %v", cfg.Scheme)
	}
	if cfg.Levels == nil {
		return nil, fmt.Errorf("repair: nil levels")
	}
	if cfg.Levels.Count() != levels {
		return nil, fmt.Errorf("repair: code has %d levels, store replicates %d", cfg.Levels.Count(), levels)
	}
	targets, err := (&AuditConfig{Dist: cfg.Dist, TotalBlocks: cfg.TotalBlocks, Targets: cfg.Targets}).DistinctTargets(levels)
	if err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	d := &Daemon{
		shard:     shard,
		cfg:       cfg,
		targets:   targets,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		truncated: cfg.Metrics.Counter("repair_rounds_truncated_total"),
	}
	d.Loop = NewLoop("repair", cfg.Metrics, cfg.Interval, roundTimeout, cfg.Seed, d.round)
	return d, nil
}

// RunOnce performs one audit+repair round: scan the fleet, and for each
// deficient level (most critical first, within the block budget) sample
// surviving blocks, recombine fresh ones, and place them preferring the
// under-provisioned replicas. It returns the round's report; the error
// is non-nil when the fleet was unreachable or a regenerated block
// could not be placed, which the loop answers with backoff.
//
// RunOnce never decodes: a level none of whose survivors remain is
// skipped (and reported), not reconstructed.
func (d *Daemon) RunOnce(ctx context.Context) (Report, error) { return d.Loop.RunOnce(ctx) }

// round is audit → collect → fill.
func (d *Daemon) round(ctx context.Context) (*Report, error) {
	shard, err := d.shard()
	if err != nil {
		return nil, fmt.Errorf("repair: resolve shard: %w", err)
	}
	audit, err := AuditFleet(ctx, shard, AuditConfig{Object: d.cfg.Object, Targets: d.targets})
	if err != nil {
		return nil, err
	}
	rep := &Report{Audit: audit}
	deficient := audit.Deficient()
	if len(deficient) == 0 {
		return rep, nil
	}
	if audit.Reachable == 0 {
		return rep, fmt.Errorf("repair: %w: all %d replicas unreachable", store.ErrStoreUnavailable, audit.Unreachable)
	}

	// One collect covers every deficient level: survivors of level k
	// also serve as sample padding for deeper PLC levels.
	survivors, err := shard.CollectObject(ctx, d.cfg.Object, deficient[len(deficient)-1].Level)
	if err != nil {
		return rep, err
	}
	SortBlocks(survivors) // deterministic sampling under a fixed seed
	for _, b := range survivors {
		rep.BytesCollected += int64(b.WireSize())
	}
	fill := Fill{
		Shard: shard, Scheme: d.cfg.Scheme, Levels: d.cfg.Levels, SampleSize: d.cfg.SampleSize,
		Rng: d.rng, Survivors: survivors, Deficient: deficient, Budget: d.cfg.BlockBudget,
	}
	err = fill.Run(ctx, &rep.Tally)
	d.Record(rep.Tally)
	if rep.Truncated {
		d.truncated.Inc()
	}
	if err != nil {
		return rep, fmt.Errorf("repair: %w", err)
	}
	return rep, nil
}
