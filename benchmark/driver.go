package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a quantile or mean; 0 for a plain count.
	N int `json:"n,omitempty"`
	// Note says when a tail percentile had too few samples beyond it and
	// a lower one was reported under the metric's name.
	Note string `json:"note,omitempty"`
}

// pass is one run of one workload: its inputs, and everything the
// workload reports back.
type pass struct {
	seed     int64
	window   time.Duration
	inflight int
	// in is the traced pass's instrumentation; nil in the untraced pass,
	// which attaches no registry, no decorator and no spans.
	in        *instr
	dataDir   string
	setupReps int
	// rate overrides the workload's open-loop rate (the sweep); 0 keeps it.
	rate float64

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string // the first few, for the report
	nextOp    atomic.Uint64

	e2e map[string]metric

	// What the layer derivation needs beyond the registry and the spans.
	lag           samples // open loop: start − due, ms, in start order
	dropped       atomic.Int64
	offeredPerS   float64
	ackedPayload  atomic.Int64 // coded payload bytes of acked puts
	frontOps      atomic.Int64 // front-end puts + collects in the window
	collects      atomic.Int64
	collectBlocks atomic.Int64
	overhead      samples // blocks consumed ÷ N at complete decodes
	dialer        *countingDialer
	wire0         wireCounts // dialer counters at window start
	gcPause0      uint64     // runtime GC pause total at pass start
	disk          diskTally
	heal          healTally
	probes        probeInputs
}

type wireCounts struct{ in, out, dials int64 }

// diskTally is what ingest-disk learns from reopening its engines.
type diskTally struct {
	openMs     samples // diskstore.Open, mean per node per reopen
	replayPerS samples // blocks replayed per second of Open
	segments   int
}

// healTally sums the repair and mover reports of heal-after-loss, and
// keeps the two per-cycle series a seed must reproduce exactly.
type healTally struct {
	repairRounds samples // per object, until its audit is clean
	moverRounds  samples // per cycle, until no stale holder
	regenerated  int64   // repair
	collected    int64
	placed       int64
	skipped      int64 // deficient levels with no usable sample
	levels       int64 // deficient levels repair acted on
	migrated     int64 // mover
	moved        int64 // blocks regenerated or copied onto new owners
	moverBytes   int64
	reclaimed    int64
	cycleLevels  []float64 // mean levels decodable after the loss
	cycleStored  []float64 // stored bytes per user byte after migration
}

func newPass(o options, window time.Duration, in *instr, setupReps int) *pass {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return &pass{
		seed: o.seed, rate: o.rate, window: window, in: in, dataDir: o.dataDir, setupReps: setupReps,
		inflight: parallelism(), e2e: make(map[string]metric), gcPause0: mem.PauseTotalNs,
	}
}

// rateOr returns the pass's rate override, or the workload's own rate.
func (p *pass) rateOr(rate float64) float64 {
	if p.rate > 0 {
		return p.rate
	}
	return rate
}

// parallelism is both GOMAXPROCS and the in-flight operation count:
// min(nproc, 4).
func parallelism() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// rng returns a generator for one named stream of the pass's seed, so
// adding a draw to one stream never shifts another.
func (p *pass) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(p.seed*1000003 + stream))
}

func (p *pass) opID() uint64 { return p.nextOp.Add(1) }

// fail counts one failed operation.
func (p *pass) fail(format string, args ...any) {
	p.failed.Add(1)
	p.mu.Lock()
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// check counts one attempted operation and, when err is non-nil, one
// failed.
func (p *pass) check(what string, err error) bool {
	p.attempted.Add(1)
	if err != nil {
		p.fail("%s: %v", what, err)
		return false
	}
	return true
}

func (p *pass) set(name string, value float64, n int) {
	def := endToEndByName(name)
	p.e2e[name] = metric{Value: value, Unit: def.Unit, N: n}
}

// setTail reports a tail percentile, falling back to a lower one when
// fewer than ten samples lie beyond it.
func (p *pass) setTail(name string, s *samples, want float64) {
	sorted := s.sorted()
	v, used := tailQuantile(sorted, want)
	m := metric{Value: v, Unit: endToEndByName(name).Unit, N: len(sorted)}
	if used != want {
		m.Note = fmt.Sprintf("p%g reported: fewer than ten of %d samples lie beyond p%g", used*100, len(sorted), want*100)
	}
	p.e2e[name] = m
}

func (p *pass) setMedian(name string, s *samples) {
	sorted := s.sorted()
	p.set(name, quantile(sorted, 0.5), len(sorted))
}

// startWindow marks where the measured window begins for the wire
// counters.
func (p *pass) startWindow(d *countingDialer) {
	p.dialer = d
	p.wire0 = wireCounts{d.in.Load(), d.out.Load(), d.dials.Load()}
}

// setupBudget is how long an untraced pass keeps rehearsing its set-up
// once it has done its minimum of repetitions: a second, less under a
// window of a few seconds.
func (p *pass) setupBudget() time.Duration {
	if b := p.window / 4; b < time.Second {
		return b
	}
	return time.Second
}

// timeSetup runs a workload's set-up at least setupReps times — and,
// when that is more than once, for at least setupBudget — tearing every
// one but the last down, and reports the median as setup_s. One boot is
// a few milliseconds of listens, dials and goroutine starts; timed once
// it would be all noise.
func timeSetup[T any](p *pass, setup func(in *instr) (T, error), teardown func(T)) (T, error) {
	var times []float64
	start := time.Now()
	for {
		last := len(times)+1 >= p.setupReps && (p.setupReps == 1 || time.Since(start) >= p.setupBudget())
		in := p.in
		if !last && in != nil {
			in = newInstr() // rehearsals must not leak into the traced series
		}
		t0 := time.Now()
		st, err := setup(in)
		if err != nil {
			var zero T
			return zero, err
		}
		times = append(times, time.Since(t0).Seconds())
		if last {
			p.set("setup_s", median(times), len(times))
			return st, nil
		}
		teardown(st)
	}
}

// plannedOp is one operation of an open-loop plan.
type plannedOp struct {
	Due   time.Duration
	Put   bool
	Obj   int
	Level int
}

// poissonPlan draws arrival times at the given rate until the window
// ends; the caller fills in each op's kind, object and level. The plan
// is a pure function of its arguments.
func poissonPlan(rng *rand.Rand, rate float64, window time.Duration) []plannedOp {
	var plan []plannedOp
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return plan
		}
		plan = append(plan, plannedOp{Due: due})
	}
}

// maxLag is how late an open-loop operation may start before it is
// dropped as overload instead of issued.
const maxLag = 2 * time.Second

// runOpenLoop issues the plan on a schedule, whatever the target does:
// workers take operations in due order, wait for the due time, and call
// do with it. do times the operation from due, so the wait a stall
// imposes on the operations queued behind it is in their latency. An
// operation that could not start within maxLag of its due time is
// handed to drop instead.
func (p *pass) runOpenLoop(plan []plannedOp, do func(worker int, op plannedOp, due time.Time), drop func(plannedOp)) {
	if len(plan) > 0 {
		p.offeredPerS = float64(len(plan)) / plan[len(plan)-1].Due.Seconds()
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.inflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				due := start.Add(plan[i].Due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lag := time.Since(due)
				p.lag.add(ms(lag))
				if lag > maxLag {
					p.dropped.Add(1)
					drop(plan[i])
					continue
				}
				do(w, plan[i], due)
			}
		}(w)
	}
	wg.Wait()
}

// runClosedLoop keeps `clients` clients busy for d, and until atLeast
// operations were issued: each client issues its next operation only
// when its previous one completed. Operations are numbered across
// clients. It returns the operations completed per second.
func runClosedLoop(clients int, d time.Duration, atLeast int, do func(client, i int)) float64 {
	start := time.Now()
	deadline := start.Add(d)
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= atLeast && !time.Now().Before(deadline) {
					return
				}
				do(c, i)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// payloadBytes is the user payload a coded block carries.
func payloadBytes(b *core.CodedBlock) int64 { return int64(len(b.Payload)) }
