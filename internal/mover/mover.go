// Package mover re-homes coded blocks when ring membership changes.
//
// Consistent hashing tells every node where an object lives *now*; it
// says nothing about moving the blocks that landed under an older
// membership. After a join, the new successor owns an object it holds
// zero blocks of — reads still work only as long as the displaced
// nodes stay up, which is exactly the assumption churn breaks. The
// mover closes that gap: it diffs data placement against ring
// ownership and migrates until they agree.
//
// Each round:
//
//  1. plan: scan every reachable node's per-object inventory
//     (Stats().PerObject) and diff it against the ring's current
//     successor lists. A node holding an object it no longer owns is a
//     stale holder; the object joins the work list, ordered
//     most-critical-level-first (an object whose level-0 copies all sit
//     on stale holders outranks one missing only its tail levels).
//  2. heal: each planned object runs repair's per-object heal step
//     (repair.Heal.Object) with its stale holders given: fill the new
//     owners by recombining survivors from owners and stale holders,
//     verify the owners, and only then delete the stale copies. A
//     failed object keeps them — migration never destroys the only
//     copy — and is re-planned next round. Two objects move at a time
//     under one token bucket capping the byte rate.
//
// Planning from inventories (not from membership events) makes rounds
// idempotent and restart-safe: whatever a crashed mover left half-done
// is still visible as stale holdings to the next round. The placement
// layer's membership hook only accelerates the loop via Kick; it is
// never load-bearing for correctness.
package mover

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/repair"
	"repro/internal/store"
)

// Config parameterizes a Mover.
type Config struct {
	// Scheme and Levels describe the code the fleet holds.
	Scheme core.Scheme
	Levels *core.Levels
	// Targets are the per-level distinct-block targets migrated objects
	// are verified against — the same as repair.Config's, and they
	// should carry the same values (dist.Apportion derives them from
	// a priority distribution).
	Targets []int
	// Interval is the pause between successful rounds; failed rounds
	// back off from it, doubling up to 16x. Default 5s; a membership
	// change cuts the wait short via Kick.
	Interval time.Duration
	// RateLimit caps the mover's aggregate byte rate (collected plus
	// placed wire bytes) in bytes/second; 0 means unlimited. Migration
	// is background work — the cap is what keeps foreground puts and
	// gets within their latency budget while the fleet rebalances. The
	// token bucket holds max(RateLimit, 1 MiB).
	RateLimit int64
	// Seed seeds recombination (0 means 1); each object derives its own
	// generator from Seed and its ID, so concurrent objects do not
	// perturb determinism.
	Seed int64
	// Metrics, when non-nil, receives the mover_* series (DESIGN.md §15).
	Metrics *metrics.Registry
}

// Knobs nobody set, now constants at their old defaults: the bound on
// one loop-driven plan+migrate round, the token bucket's floor, and how
// many objects migrate at once.
const (
	roundTimeout = 60 * time.Second
	minBurst     = 1 << 20
	workers      = 2
)

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Report summarizes one migration round.
type Report struct {
	// Plan is the work list the round executed.
	Plan *Plan
	// Migrated counts objects fully re-homed, verified, and reclaimed.
	Migrated int
	// Failed counts objects whose migration did not complete this
	// round; they keep their stale holdings and are re-planned next
	// round.
	Failed int
	// Tally is what the round's heal steps moved, failed objects
	// included, down to the stale copies their releases reclaimed.
	repair.Tally
}

// Mover is the background migration loop over a placement ring. Every
// interval — or immediately upon Kick — it plans and executes one
// migration round. Failed rounds back off exponentially with jitter.
// Start, Stop, RunOnce, Rounds and LastReport come from the embedded
// repair.Loop, the control loop it shares with the repair daemon.
type Mover struct {
	*repair.Loop[Report]
	placed  *store.Placed
	cfg     Config
	heal    repair.Heal
	met     moverMetrics
	limiter *throttle
}

// New validates the configuration and returns a stopped mover; call
// Start to launch the loop, or RunOnce to drive rounds manually.
func New(p *store.Placed, cfg Config) (*Mover, error) {
	if p == nil {
		return nil, fmt.Errorf("mover: nil placed store")
	}
	cfg.fillDefaults()
	m := &Mover{
		placed:  p,
		cfg:     cfg,
		met:     newMoverMetrics(cfg.Metrics),
		limiter: newThrottle(cfg.RateLimit, minBurst),
	}
	m.heal = repair.Heal{Scheme: cfg.Scheme, Levels: cfg.Levels, Targets: cfg.Targets, Charge: m.throttleWait}
	if err := m.heal.Validate(p.Levels()); err != nil {
		return nil, fmt.Errorf("mover: %w", err)
	}
	m.Loop = repair.NewLoop("mover", cfg.Metrics, cfg.Interval, roundTimeout, cfg.Seed, m.round)
	return m, nil
}

// Kick requests an immediate round, collapsing any pending wait or
// backoff. Install it with Placed.SetMembershipHook so migration
// starts the moment placement shifts. Never blocks; kicks coalesce.
func (m *Mover) Kick() {
	m.met.kicks.Inc()
	m.Loop.Kick()
}

// round is one migration round — plan, then a heal step per planned
// object — run by the embedded Loop's RunOnce. The error is non-nil
// when planning failed or any object's migration did, which the loop
// answers with backoff; a failed object keeps its stale holdings and is
// re-planned next round.
func (m *Mover) round(ctx context.Context) (*Report, error) {
	plan, err := m.plan(ctx)
	if err != nil {
		return nil, fmt.Errorf("mover: plan: %w", err)
	}
	rep := &Report{Plan: plan}
	m.met.objectsPlanned.Add(uint64(len(plan.Objects)))
	if len(plan.Objects) == 0 {
		return rep, nil
	}

	// Objects start in plan order as worker slots free up, so the most
	// critical ones start first even though completions interleave.
	tallies := make([]repair.Tally, len(plan.Objects))
	errs := make([]error, len(plan.Objects))
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	started := 0
	for i, op := range plan.Objects {
		slots <- struct{}{}
		if ctx.Err() != nil {
			break
		}
		started++
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.migrateObject(ctx, op, &tallies[i])
			<-slots
		}()
	}
	wg.Wait()

	var firstErr error
	for i := range started {
		rep.Add(tallies[i])
		if errs[i] == nil {
			rep.Migrated++
			continue
		}
		rep.Failed++
		m.met.objectErrors.Inc()
		if firstErr == nil {
			firstErr = errs[i]
		}
	}
	m.Record(rep.Tally)
	m.met.blocksCopied.Add(uint64(rep.Copied))
	m.met.objectsMigrated.Add(uint64(rep.Migrated))
	m.met.deletesIssued.Add(uint64(rep.DeletesIssued))
	m.met.blocksReclaimed.Add(uint64(rep.BlocksReclaimed))
	if firstErr != nil {
		return rep, fmt.Errorf("mover: %d/%d objects failed: %w", rep.Failed, len(plan.Objects), firstErr)
	}
	return rep, ctx.Err()
}

// migrateObject re-homes one object: the heal step over its current
// owners with its stale holders given, adding what it moved to t. The
// object recombines from its own generator, seeded by Seed and the
// object ID, so worker interleaving never changes what gets placed.
func (m *Mover) migrateObject(ctx context.Context, op ObjectPlan, t *repair.Tally) error {
	shard, err := m.placed.Shard(op.Object)
	if err != nil {
		return fmt.Errorf("mover: resolve shard %s: %w", op.Object, err)
	}
	stale := make([]*store.Client, len(op.Stale))
	for i, addr := range op.Stale {
		if stale[i], err = m.placed.ClientFor(addr); err != nil {
			return fmt.Errorf("mover: %s: %w", op.Object, err)
		}
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed ^ int64(op.Object)))
	if _, err := m.heal.Object(ctx, shard, op.Object, stale, rng, t); err != nil {
		return fmt.Errorf("mover: %s: %w", op.Object, err)
	}
	return nil
}

// throttleWait charges n bytes against the rate limit and records the
// stall.
func (m *Mover) throttleWait(ctx context.Context, n int) error {
	slept, err := m.limiter.wait(ctx, n)
	if slept > 0 {
		m.met.throttleWaitNs.Observe(int64(slept))
	}
	return err
}

// moverMetrics is the mover's own series — the round, backoff and fill
// series it shares with the repair daemon are registered by repair.Loop
// under the "mover" prefix. Names resolve once at construction, and a
// nil registry yields all-nil fields with every recording call a no-op.
// The name catalog lives in DESIGN.md §15.
type moverMetrics struct {
	kicks           *metrics.Counter
	objectsPlanned  *metrics.Counter
	objectsMigrated *metrics.Counter
	objectsSkipped  *metrics.Counter
	objectErrors    *metrics.Counter
	blocksCopied    *metrics.Counter
	deletesIssued   *metrics.Counter
	blocksReclaimed *metrics.Counter
	throttleWaitNs  *metrics.Histogram
}

func newMoverMetrics(r *metrics.Registry) moverMetrics {
	return moverMetrics{
		kicks:           r.Counter("mover_kicks_total"),
		objectsPlanned:  r.Counter("mover_objects_planned_total"),
		objectsMigrated: r.Counter("mover_objects_migrated_total"),
		objectsSkipped:  r.Counter("mover_objects_skipped_total"),
		objectErrors:    r.Counter("mover_object_errors_total"),
		blocksCopied:    r.Counter("mover_blocks_copied_total"),
		deletesIssued:   r.Counter("mover_deletes_issued_total"),
		blocksReclaimed: r.Counter("mover_blocks_reclaimed_total"),
		throttleWaitNs:  r.Histogram("mover_throttle_wait_ns"),
	}
}
