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
//  2. transfer: for each planned object, audit the new owners and fill
//     their per-level deficits by recombining survivors collected from
//     the stale holders — fresh blocks, the paper's regeneration
//     primitive, not verbatim moves (with a verbatim-copy fallback when
//     the survivors are at minimum rank and recombination is
//     degenerate). Concurrency is bounded, transfers retry with
//     backoff, and a shared token bucket caps the byte rate.
//  3. verify + reclaim: re-audit the owners against the provisioning
//     targets; only when every level meets its copy target are the
//     stale holders sent Delete. A failed verification leaves the old
//     copies in place — migration never destroys the only copy.
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
	// Dist and TotalBlocks (or Targets) define the provisioning targets
	// migrated objects are verified against — the same knobs as
	// repair.AuditConfig, and they should carry the same values.
	Dist        core.PriorityDistribution
	TotalBlocks int
	Targets     []int
	// Interval is the pause between successful rounds; failed rounds
	// back off from it, doubling up to 16x. Default 5s; a membership
	// change cuts the wait short via Kick.
	Interval time.Duration
	// Workers bounds how many objects migrate concurrently. Default 2.
	Workers int
	// RateLimit caps the mover's aggregate byte rate (collected plus
	// placed wire bytes) in bytes/second; 0 means unlimited. Migration
	// is background work — the cap is what keeps foreground puts and
	// gets within their latency budget while the fleet rebalances. The
	// token bucket holds max(RateLimit, 1 MiB).
	RateLimit int64
	// SampleSize is how many survivors feed each recombination. Default 8.
	SampleSize int
	// Seed seeds recombination (0 means 1); each object derives its own
	// generator from Seed and its ID, so bounded concurrency does not
	// perturb determinism.
	Seed int64
	// Metrics, when non-nil, receives the mover_* series (DESIGN.md §15).
	Metrics *metrics.Registry
}

// Knobs nobody set, now constants at their old defaults: the bound on
// one loop-driven plan+migrate round, the token bucket's floor, how
// many times one object's migration is tried per round before it is
// counted failed, and the base delay between tries (doubling).
const (
	roundTimeout = 60 * time.Second
	minBurst     = 1 << 20
	attempts     = 3
	retryBackoff = 250 * time.Millisecond
)

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 8
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
	// round; they stay planned (the stale holdings persist) and retry
	// next round.
	Failed int
	// Tally is what the round's fills placed on new owners, failed
	// attempts included: Regenerated fresh recombinations and Copied
	// verbatim blocks (the minimum-rank fallback), the Copies they aimed
	// at, BytesCollected and BytesPlaced, and the SkippedLevels — one
	// entry per level transfer skipped for lack of a usable survivor:
	// lost data, which migration cannot conjure back.
	repair.Tally
	// DeletesIssued counts reclaim calls to stale holders;
	// BlocksReclaimed the copies they removed.
	DeletesIssued   int
	BlocksReclaimed int
}

// Mover is the background migration loop over a placement ring. Every
// interval — or immediately upon Kick — it plans and executes one
// migration round. Failed rounds back off exponentially with jitter.
// Start, Stop, Rounds and LastReport come from the embedded
// repair.Loop, the control loop it shares with the repair daemon.
type Mover struct {
	*repair.Loop[Report]
	placed  *store.Placed
	cfg     Config
	targets []int // cfg's provisioning targets, resolved once
	met     moverMetrics
	limiter *throttle
}

// New validates the configuration and returns a stopped mover; call
// Start to launch the loop, or RunOnce to drive rounds manually.
func New(p *store.Placed, cfg Config) (*Mover, error) {
	if p == nil {
		return nil, fmt.Errorf("mover: nil placed store")
	}
	if !cfg.Scheme.Valid() {
		return nil, fmt.Errorf("mover: invalid scheme %v", cfg.Scheme)
	}
	if cfg.Levels == nil {
		return nil, fmt.Errorf("mover: nil levels")
	}
	if cfg.Levels.Count() != p.Levels() {
		return nil, fmt.Errorf("mover: code has %d levels, store replicates %d", cfg.Levels.Count(), p.Levels())
	}
	acfg := repair.AuditConfig{Dist: cfg.Dist, TotalBlocks: cfg.TotalBlocks, Targets: cfg.Targets}
	targets, err := acfg.DistinctTargets(p.Levels())
	if err != nil {
		return nil, fmt.Errorf("mover: %w", err)
	}
	cfg.fillDefaults()
	m := &Mover{
		placed:  p,
		cfg:     cfg,
		targets: targets,
		met:     newMoverMetrics(cfg.Metrics),
		limiter: newThrottle(cfg.RateLimit, minBurst),
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

// RunOnce performs one migration round — plan, transfer, verify,
// reclaim — and returns its report. The error is non-nil when planning
// failed or any object's migration did, which the loop answers with
// backoff; partially-migrated objects stay visible as stale holdings
// and are re-planned next round.
func (m *Mover) RunOnce(ctx context.Context) (Report, error) { return m.Loop.RunOnce(ctx) }

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
	results := make([]Report, len(plan.Objects))
	errs := make([]error, len(plan.Objects))
	slots := make(chan struct{}, m.cfg.Workers)
	var wg sync.WaitGroup
	for i := range plan.Objects {
		slots <- struct{}{}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.migrateAttempts(ctx, plan.Objects[i])
			<-slots
		}(i)
	}
	wg.Wait()

	var firstErr error
	for i, res := range results {
		rep.Add(res.Tally)
		rep.DeletesIssued += res.DeletesIssued
		rep.BlocksReclaimed += res.BlocksReclaimed
		rep.Migrated += res.Migrated
		if errs[i] != nil {
			rep.Failed++
			m.met.objectErrors.Inc()
			if firstErr == nil {
				firstErr = errs[i]
			}
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
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// migrateAttempts drives one object through up to `attempts` tries with
// doubling backoff. Each object recombines from its own generator,
// seeded by Seed and the object ID, so worker interleaving never
// changes what gets placed.
func (m *Mover) migrateAttempts(ctx context.Context, op ObjectPlan) (Report, error) {
	rng := rand.New(rand.NewSource(m.cfg.Seed ^ int64(op.Object)))
	var res Report
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(retryBackoff << (attempt - 1))
			select {
			case <-ctx.Done():
				timer.Stop()
				return res, err
			case <-timer.C:
			}
		}
		// Every attempt accumulates into the one result: work done by a
		// failed attempt still moved bytes and is accounted.
		if err = m.migrateObject(ctx, op, rng, &res); err == nil || ctx.Err() != nil {
			break
		}
	}
	return res, err
}
