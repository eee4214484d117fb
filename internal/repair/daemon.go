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
	// Targets are the per-level distinct-block targets the audit
	// measures against — see AuditConfig.
	Targets []int
	// Interval is the pause between successful rounds; failed rounds
	// back off from it, doubling up to 16x. Default 2s.
	Interval time.Duration
	// BlockBudget caps the blocks regenerated per round, so one huge
	// deficit cannot starve the critical levels of later rounds (the
	// budget is spent most-critical-level-first). Default 64.
	BlockBudget int
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
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Report summarizes one repair round.
type Report struct {
	// Audit is the inventory scan the round acted on.
	Audit *Audit
	// Tally is what the round's heal step moved; with no copy path and
	// no stale holders, Copied and the reclaim counts stay 0.
	Tally
}

// Daemon is the background maintenance loop: every interval it audits
// the fleet and regenerates missing redundancy by recombination,
// most-critical-level-first. Failed rounds back off exponentially with
// jitter. The daemon never decodes: its only data operations are
// collect, recombine, put. Start, Stop, Kick, RunOnce, Rounds and
// LastReport come from the embedded Loop.
type Daemon struct {
	*Loop[Report]
	// shard resolves the replica set each round operates on: constant
	// for a static Replicated store, re-resolved through the placement
	// ring for an object shard — so repair follows membership churn.
	shard  func() (*store.Replicated, error)
	object core.ObjectID
	heal   Heal
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
	cfg.fillDefaults()
	d := &Daemon{
		shard:     shard,
		object:    cfg.Object,
		heal:      Heal{Scheme: cfg.Scheme, Levels: cfg.Levels, Targets: cfg.Targets, Budget: cfg.BlockBudget},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		truncated: cfg.Metrics.Counter("repair_rounds_truncated_total"),
	}
	if err := d.heal.Validate(levels); err != nil {
		return nil, err
	}
	d.Loop = NewLoop("repair", cfg.Metrics, cfg.Interval, roundTimeout, cfg.Seed, d.round)
	return d, nil
}

// round is one heal step over the object's current owners, with no
// stale holders, run by the embedded Loop's RunOnce: scan the owners,
// and for each deficient level (most critical first, within the block
// budget) sample surviving blocks, recombine fresh ones, and place them
// preferring the under-provisioned replicas. The error is non-nil when
// no owner answered or a regenerated block could not be placed, which
// the loop answers with backoff. A level none of whose survivors remain
// is skipped (and reported), never decoded.
func (d *Daemon) round(ctx context.Context) (*Report, error) {
	shard, err := d.shard()
	if err != nil {
		return nil, fmt.Errorf("repair: resolve shard: %w", err)
	}
	var rep Report
	if rep.Audit, err = AuditFleet(ctx, shard, AuditConfig{Object: d.object, Targets: d.heal.Targets}); err != nil {
		return nil, err
	}
	err = d.heal.Object(ctx, shard, d.object, rep.Audit, nil, d.rng, &rep.Tally)
	d.Record(rep.Tally)
	if rep.Truncated {
		d.truncated.Inc()
	}
	if err != nil {
		return &rep, fmt.Errorf("repair: %w", err)
	}
	return &rep, nil
}
