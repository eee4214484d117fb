// Package mover is the fleet's one healer: it re-homes coded blocks
// when ring membership changes and refills owners that lost copies.
//
// Consistent hashing tells every node where an object lives *now*; it
// says nothing about moving the blocks that landed under an older
// membership, nor about the copies a wiped or replaced owner lost.
// After a join, the new successor owns an object it holds zero blocks
// of — reads still work only as long as the displaced nodes stay up,
// which is exactly the assumption churn breaks. The mover closes both
// gaps: it diffs data placement against ring ownership, audits every
// object's owners against the provisioning targets, and heals until
// they agree.
//
// Each round:
//
//  1. plan: scan every reachable node's per-object inventory
//     (Stats().PerObject) once. An object held by a node outside its
//     current successor list is displaced (that node is a stale
//     holder); one whose owners fall short of the targets by repair's
//     audit rule is short. Either puts it on the work list, ordered
//     most-critical-level-first (an object whose level-0 copies all sit
//     on stale holders outranks one missing only its tail levels).
//  2. heal: each planned object runs repair's per-object heal step
//     (repair.Heal.Object) on the plan's audit. A short object is
//     refilled by recombining its owners' survivors — a repair step. A
//     displaced one also draws on its stale holders, verifies the
//     owners, and only then deletes the stale copies. A failed object
//     keeps them — migration never destroys the only copy — and is
//     re-planned next round. Two objects heal at a time under one token
//     bucket capping the byte rate.
//
// Planning from inventories (not from membership events) makes rounds
// idempotent and restart-safe: whatever a crashed mover left half-done
// is still visible to the next round. The placement layer's membership
// hook only accelerates the loop via Kick; it is never load-bearing for
// correctness.
package mover

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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
	// Targets are the per-level distinct-block targets every object's
	// owners are audited and verified against (dist.Apportion derives
	// them from a priority distribution).
	Targets []int
	// Interval is the pause between successful rounds; failed rounds
	// back off from it, doubling up to 16x. Default 5s; a membership
	// change cuts the wait short via Kick.
	Interval time.Duration
	// RateLimit caps the mover's aggregate byte rate (collected plus
	// placed wire bytes) in bytes/second; 0 means unlimited. Healing
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
// one loop-driven plan+heal round, the token bucket's floor, how many
// objects heal at once, and the schedule's shape — failed rounds back
// off up to backoffCap × the interval, and a random share of up to
// jitterFraction is shaved off each wait so a fleet of movers
// desynchronizes.
const (
	roundTimeout   = 60 * time.Second
	minBurst       = 1 << 20
	workers        = 2
	backoffCap     = 16
	jitterFraction = 0.2
)

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Report summarizes one heal round.
type Report struct {
	// Plan is the work list the round executed.
	Plan *Plan
	// Migrated counts objects whose heal step completed: refilled, and
	// when displaced also re-homed, verified, and reclaimed.
	Migrated int
	// Failed counts objects whose heal step did not complete this
	// round; they keep their stale holdings and are re-planned next
	// round.
	Failed int
	// Tally is what the round's heal steps moved, failed objects
	// included, down to the stale copies their releases reclaimed.
	repair.Tally
}

// Mover is the background heal loop over a placement ring. Every
// interval — or immediately upon Kick — it plans and executes one heal
// round; RunOnce runs one on the caller's goroutine, serialized with
// the loop's. Failed rounds back off exponentially with jitter.
type Mover struct {
	placed  *store.Placed
	cfg     Config
	heal    repair.Heal
	met     moverMetrics
	limiter *throttle
	// round is the round RunOnce runs, (*Mover).healRound; tests swap in
	// a stand-in to drive the schedule without a fleet's timing.
	round func(context.Context) (*Report, error)

	mu       sync.Mutex // serializes rounds and guards the fields below
	last     Report
	runs     int
	failures int // consecutive failed rounds

	// started is outside mu, which a round holds throughout: Stop must
	// read it without waiting the round out.
	started atomic.Bool

	// jitter is the loop goroutine's own generator, never a
	// recombination one: a seeded history must not depend on whether
	// the loop or RunOnce drove a round.
	jitter *rand.Rand

	ctx      context.Context
	cancel   context.CancelFunc
	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// New validates the configuration and returns a stopped mover; call
// Start to launch the loop, or RunOnce to drive rounds manually.
func New(p *store.Placed, cfg Config) (*Mover, error) {
	if p == nil {
		return nil, fmt.Errorf("mover: nil placed store")
	}
	cfg.fillDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Mover{
		placed:  p,
		cfg:     cfg,
		met:     newMoverMetrics(cfg.Metrics),
		limiter: newThrottle(cfg.RateLimit, minBurst),
		jitter:  rand.New(rand.NewSource(cfg.Seed)),
		ctx:     ctx,
		cancel:  cancel,
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	m.heal = repair.Heal{Scheme: cfg.Scheme, Levels: cfg.Levels, Targets: cfg.Targets, Charge: m.throttleWait}
	if err := m.heal.Validate(p.Levels()); err != nil {
		return nil, fmt.Errorf("mover: %w", err)
	}
	m.round = m.healRound
	return m, nil
}

// Start launches the background loop. The first round runs immediately.
// Start is idempotent.
func (m *Mover) Start() {
	if !m.started.Swap(true) {
		go m.run()
	}
}

// Stop shuts the loop down gracefully: it exits after the in-flight
// round completes, and starts no further one. If ctx expires first, the
// round is cancelled and Stop returns the context error once the loop
// has exited. Safe to call more than once, and before Start.
func (m *Mover) Stop(ctx context.Context) error {
	m.stopOnce.Do(func() { close(m.stop) })
	defer m.cancel()
	if !m.started.Load() {
		return nil
	}
	select {
	case <-m.done:
		return nil
	case <-ctx.Done():
		m.cancel()
		<-m.done
		return ctx.Err()
	}
}

// Kick requests an immediate round, collapsing any pending wait or
// backoff. Install it with Placed.SetMembershipHook so migration
// starts the moment placement shifts. Never blocks; kicks coalesce.
func (m *Mover) Kick() {
	m.met.kicks.Inc()
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// Rounds returns how many rounds have run, loop-driven or manual.
func (m *Mover) Rounds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs
}

// LastReport returns the most recent round's report.
func (m *Mover) LastReport() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// RunOnce runs one round now, on the caller's goroutine, serialized
// with the loop's own, and returns its report. A failed round counts
// toward the loop's backoff like one the loop drove; one that failed
// before having a report returns an empty one and leaves LastReport
// alone.
func (m *Mover) RunOnce(ctx context.Context) (Report, error) {
	t0 := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runs++
	rep, err := m.round(ctx)
	if rep != nil {
		m.last = *rep
	} else {
		rep = new(Report)
	}
	m.met.Round(t0, rep.Tally, err)
	if err != nil {
		m.failures++
	} else {
		m.failures = 0
	}
	m.met.consecutiveFailures.Set(int64(m.failures))
	m.met.backoffNs.Set(int64(nextWait(m.cfg.Interval, m.failures)))
	return *rep, err
}

func (m *Mover) run() {
	defer close(m.done)
	timer := time.NewTimer(0) // first round immediately
	defer timer.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-timer.C:
		case <-m.kick:
			// A kick outranks the schedule: run now. The timer is drained
			// so the reset below starts clean.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		// select picks at random among ready cases: without this check a
		// Stop racing a due or kicked round could start it and wait it out.
		select {
		case <-m.stop:
			return
		default:
		}
		rctx, rcancel := context.WithTimeout(m.ctx, roundTimeout)
		m.RunOnce(rctx) // the outcome is in m.failures
		rcancel()
		if m.ctx.Err() != nil {
			return
		}
		m.mu.Lock()
		wait := nextWait(m.cfg.Interval, m.failures)
		m.mu.Unlock()
		timer.Reset(jittered(m.jitter, wait))
	}
}

// nextWait is the pause before the next round: interval after a
// success or a first failure, doubling per further consecutive failure
// up to backoffCap × interval — a dark fleet is probed gently.
func nextWait(interval time.Duration, failures int) time.Duration {
	wait := interval
	for i := 1; i < failures && wait < backoffCap*interval; i++ {
		wait *= 2
	}
	return wait
}

// jittered shaves a random share of up to jitterFraction off wait.
func jittered(rng *rand.Rand, wait time.Duration) time.Duration {
	return time.Duration(float64(wait) * (1 - jitterFraction*rng.Float64()))
}

// healRound is one heal round — plan, then a heal step per planned
// object. The error is non-nil when planning failed, no ring member
// answered, or any object's heal step failed, which the loop answers
// with backoff; a failed object keeps its stale holdings and is
// re-planned next round. It returns no report when planning failed
// before having a plan.
func (m *Mover) healRound(ctx context.Context) (*Report, error) {
	plan, err := m.plan(ctx)
	if plan == nil {
		return nil, fmt.Errorf("mover: plan: %w", err)
	}
	rep := &Report{Plan: plan}
	if err != nil {
		return rep, fmt.Errorf("mover: %w", err)
	}
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
			errs[i] = m.healObject(ctx, op, &tallies[i])
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
	m.met.blocksCopied.Add(uint64(rep.Copied))
	m.met.objectsMigrated.Add(uint64(rep.Migrated))
	m.met.deletesIssued.Add(uint64(rep.DeletesIssued))
	m.met.blocksReclaimed.Add(uint64(rep.BlocksReclaimed))
	if firstErr != nil {
		return rep, fmt.Errorf("mover: %d/%d objects failed: %w", rep.Failed, len(plan.Objects), firstErr)
	}
	return rep, ctx.Err()
}

// healObject runs the heal step on one planned object, over the owners
// and audit the plan took, with its stale holders given, adding what it
// moved to t. When membership moved the object's owners since the plan,
// it fails without touching anything, and the next round re-plans it.
// The object recombines from its own generator, seeded by Seed and the
// object ID, so worker interleaving never changes what gets placed.
func (m *Mover) healObject(ctx context.Context, op ObjectPlan, t *repair.Tally) error {
	shard, err := m.placed.Shard(op.Object)
	if err != nil {
		return fmt.Errorf("mover: resolve shard %s: %w", op.Object, err)
	}
	if shard != op.shard {
		return fmt.Errorf("mover: %s: owners changed since the plan", op.Object)
	}
	stale := make([]*store.Client, len(op.Stale))
	for i, addr := range op.Stale {
		if stale[i], err = m.placed.ClientFor(addr); err != nil {
			return fmt.Errorf("mover: %s: %w", op.Object, err)
		}
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed ^ int64(op.Object)))
	if err := m.heal.Object(ctx, shard, op.Object, op.Audit, stale, rng, t); err != nil {
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

// moverMetrics is the mover_* series: the round and fill series, which
// repair.Counters registers for both healers, then the schedule's
// backoff gauges and the mover's own. Names resolve once at
// construction, and a nil registry yields all-nil fields with every
// recording call a no-op. The name catalog lives in DESIGN.md §15.
type moverMetrics struct {
	repair.Counters
	consecutiveFailures *metrics.Gauge
	backoffNs           *metrics.Gauge

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
		Counters:            repair.NewCounters(r, "mover"),
		consecutiveFailures: r.Gauge("mover_consecutive_failures"),
		backoffNs:           r.Gauge("mover_backoff_ns"),
		kicks:               r.Counter("mover_kicks_total"),
		objectsPlanned:      r.Counter("mover_objects_planned_total"),
		objectsMigrated:     r.Counter("mover_objects_migrated_total"),
		objectsSkipped:      r.Counter("mover_objects_skipped_total"),
		objectErrors:        r.Counter("mover_object_errors_total"),
		blocksCopied:        r.Counter("mover_blocks_copied_total"),
		deletesIssued:       r.Counter("mover_deletes_issued_total"),
		blocksReclaimed:     r.Counter("mover_blocks_reclaimed_total"),
		throttleWaitNs:      r.Histogram("mover_throttle_wait_ns"),
	}
}
