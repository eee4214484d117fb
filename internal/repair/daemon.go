package repair

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
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
	// BlockBudget caps the blocks regenerated per round, so one huge
	// deficit cannot starve the critical levels of later rounds (the
	// budget is spent most-critical-level-first). Default 64.
	BlockBudget int
	// Seed seeds the recombination generator (0 means 1), so a repair
	// history is reproducible given a reproducible fleet.
	Seed int64
	// Metrics, when non-nil, receives round counters and regeneration
	// volumes (see DESIGN.md §10).
	Metrics *metrics.Registry
}

func (c *Config) fillDefaults() {
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

// Daemon runs one object's repair round on demand: it audits the
// object's owners and regenerates missing redundancy by recombination,
// most-critical-level-first. It never decodes: its only data operations
// are collect, recombine, put. The fleet's background healer is the
// mover (internal/mover); a Daemon has no schedule of its own.
type Daemon struct {
	// shard resolves the replica set each round operates on: constant
	// for a static Replicated store, re-resolved through the placement
	// ring for an object shard — so repair follows membership churn.
	shard     func() (*store.Replicated, error)
	object    core.ObjectID
	heal      Heal
	met       Counters
	truncated *metrics.Counter

	mu  sync.Mutex // serializes rounds, and so guards rng
	rng *rand.Rand // the recombination generator, one across rounds
}

// New validates the configuration and returns a daemon over a static
// replica set; RunOnce drives its rounds.
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
		met:       NewCounters(cfg.Metrics, "repair"),
		truncated: cfg.Metrics.Counter("repair_rounds_truncated_total"),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	if err := d.heal.Validate(levels); err != nil {
		return nil, err
	}
	return d, nil
}

// RunOnce runs one round now, serialized with any other: one heal step
// over the object's current owners, with no stale holders — scan the
// owners, and for each deficient level (most critical first, within the
// block budget) sample surviving blocks, recombine fresh ones, and
// place them preferring the under-provisioned replicas. The error is
// non-nil when no owner answered or a regenerated block could not be
// placed; a report without an audit means the round failed before its
// scan. A level none of whose survivors remain is skipped (and
// reported), never decoded.
func (d *Daemon) RunOnce(ctx context.Context) (rep Report, err error) {
	t0 := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	defer func() { d.met.Round(t0, rep.Tally, err) }()
	shard, err := d.shard()
	if err != nil {
		return Report{}, fmt.Errorf("repair: resolve shard: %w", err)
	}
	audit, err := AuditFleet(ctx, shard, AuditConfig{Object: d.object, Targets: d.heal.Targets})
	if err != nil {
		return Report{}, err
	}
	rep.Audit = audit
	err = d.heal.Object(ctx, shard, d.object, audit, nil, d.rng, &rep.Tally)
	if rep.Truncated {
		d.truncated.Inc()
	}
	if err != nil {
		return rep, fmt.Errorf("repair: %w", err)
	}
	return rep, nil
}

// Stop returns nil: a Daemon runs no goroutine, so there is nothing to
// stop. It stays for callers written against the loop it once had.
func (d *Daemon) Stop(context.Context) error { return nil }
