package repair

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
)

// The schedule's constants, at the defaults of the MaxBackoff and Jitter
// knobs no caller ever set: failed rounds back off up to backoffCap ×
// the interval, and a random share of up to jitterFraction is shaved
// off each wait so a fleet of loops desynchronizes.
const (
	backoffCap     = 16
	jitterFraction = 0.2
)

// Loop is the background control loop the repair Daemon and the
// migration mover both embed: it runs one round function every interval
// — or immediately upon Kick — serializes rounds, counts and times
// them, and answers failed rounds with jittered exponential backoff. R
// is the owner's per-round report type.
type Loop[R any] struct {
	interval time.Duration
	timeout  time.Duration
	round    func(context.Context) (*R, error)
	met      loopMetrics

	mu       sync.Mutex // serializes rounds and guards the fields below
	last     R
	runs     int
	failures int // consecutive failed rounds
	started  bool

	// jitter is the loop goroutine's own generator, never the owner's
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

// loopMetrics is the one registration behind the repair_* and mover_*
// round and fill series (catalog: DESIGN.md §10). Names resolve once;
// a nil registry yields nil fields whose recording calls are no-ops.
type loopMetrics struct {
	rounds              *metrics.Counter
	roundErrors         *metrics.Counter
	roundNs             *metrics.Histogram
	consecutiveFailures *metrics.Gauge
	backoffNs           *metrics.Gauge

	blocksRegenerated *metrics.Counter
	copiesPlaced      *metrics.Counter
	bytesCollected    *metrics.Counter
	bytesPlaced       *metrics.Counter
	levelsSkipped     *metrics.Counter
}

// NewLoop returns a stopped loop over round, its series registered
// under prefix ("repair", "mover"). round returns its report, or nil
// when it failed before having one (LastReport keeps the previous); an
// error makes the loop back off. timeout bounds a loop-driven round;
// seed seeds the jitter generator.
func NewLoop[R any](prefix string, reg *metrics.Registry, interval, timeout time.Duration, seed int64,
	round func(context.Context) (*R, error)) *Loop[R] {
	ctx, cancel := context.WithCancel(context.Background())
	return &Loop[R]{
		interval: interval,
		timeout:  timeout,
		round:    round,
		met: loopMetrics{
			rounds:              reg.Counter(prefix + "_rounds_total"),
			roundErrors:         reg.Counter(prefix + "_round_errors_total"),
			roundNs:             reg.Histogram(prefix + "_round_ns"),
			consecutiveFailures: reg.Gauge(prefix + "_consecutive_failures"),
			backoffNs:           reg.Gauge(prefix + "_backoff_ns"),
			blocksRegenerated:   reg.Counter(prefix + "_blocks_regenerated_total"),
			copiesPlaced:        reg.Counter(prefix + "_copies_placed_total"),
			bytesCollected:      reg.Counter(prefix + "_bytes_collected_total"),
			bytesPlaced:         reg.Counter(prefix + "_bytes_placed_total"),
			levelsSkipped:       reg.Counter(prefix + "_levels_skipped_total"),
		},
		jitter: rand.New(rand.NewSource(seed)),
		ctx:    ctx,
		cancel: cancel,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the background loop. The first round runs immediately.
// Start is idempotent.
func (l *Loop[R]) Start() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		return
	}
	l.started = true
	go l.run()
}

// Stop shuts the loop down gracefully: it exits after the in-flight
// round completes, and starts no further one. If ctx expires first, the
// round is cancelled and Stop returns the context error once the loop
// has exited. Safe to call more than once, and before Start.
func (l *Loop[R]) Stop(ctx context.Context) error {
	l.stopOnce.Do(func() { close(l.stop) })
	l.mu.Lock()
	started := l.started
	l.mu.Unlock()
	defer l.cancel()
	if !started {
		return nil
	}
	select {
	case <-l.done:
		return nil
	case <-ctx.Done():
		l.cancel()
		<-l.done
		return ctx.Err()
	}
}

// Kick requests an immediate round, collapsing any pending wait or
// backoff. Never blocks; kicks coalesce.
func (l *Loop[R]) Kick() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// Rounds returns how many rounds have run, loop-driven or manual.
func (l *Loop[R]) Rounds() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.runs
}

// LastReport returns the most recent round's report.
func (l *Loop[R]) LastReport() R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// RunOnce runs one round now, on the caller's goroutine, serialized
// with the loop's own, and returns its report. A failed round counts
// toward the loop's backoff like one the loop drove.
func (l *Loop[R]) RunOnce(ctx context.Context) (R, error) {
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runs++
	rep, err := l.round(ctx)
	if rep != nil {
		l.last = *rep
	} else {
		rep = new(R)
	}
	l.met.roundNs.ObserveSince(t0)
	l.met.rounds.Inc()
	if err != nil {
		l.met.roundErrors.Inc()
		l.failures++
	} else {
		l.failures = 0
	}
	l.met.consecutiveFailures.Set(int64(l.failures))
	l.met.backoffNs.Set(int64(nextWait(l.interval, l.failures)))
	return *rep, err
}

// Record adds what a round's fills moved to the <prefix>_* fill
// counters. Owners call it once per round, failed or not, so work done
// before an error is counted the same way on both sides.
func (l *Loop[R]) Record(t Tally) {
	l.met.blocksRegenerated.Add(uint64(t.Regenerated))
	l.met.copiesPlaced.Add(uint64(t.Copies))
	l.met.bytesCollected.Add(uint64(t.BytesCollected))
	l.met.bytesPlaced.Add(uint64(t.BytesPlaced))
	l.met.levelsSkipped.Add(uint64(len(t.SkippedLevels)))
}

func (l *Loop[R]) run() {
	defer close(l.done)
	timer := time.NewTimer(0) // first round immediately
	defer timer.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-timer.C:
		case <-l.kick:
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
		case <-l.stop:
			return
		default:
		}
		rctx, rcancel := context.WithTimeout(l.ctx, l.timeout)
		l.RunOnce(rctx) // the outcome is in l.failures
		rcancel()
		if l.ctx.Err() != nil {
			return
		}
		l.mu.Lock()
		wait := nextWait(l.interval, l.failures)
		l.mu.Unlock()
		timer.Reset(jittered(l.jitter, wait))
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
