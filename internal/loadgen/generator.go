package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/store"
)

// Op is one planned arrival: when it fires, what it does, and the seed
// for every random draw inside it. The whole op list is built up front
// from the scenario seed, so two runs of the same scenario issue the
// same operations in the same order regardless of how worker goroutines
// interleave — only the measured latencies differ.
type Op struct {
	At    time.Duration `json:"at"`
	Put   bool          `json:"put"`
	Obj   int           `json:"obj"`
	Level int           `json:"level"`
	Seed  int64         `json:"seed"`
}

// BuildOps derives the full arrival schedule from the scenario: a
// Poisson process at the scenario rate (piecewise per phase), each
// arrival tagged with kind, object, level, and a per-op seed. Pure —
// no wall clock — so it is replayable and testable.
func BuildOps(sc *Scenario) ([]Op, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	levels := len(sc.LevelFractions)
	var lvlDraw *dist.Categorical
	if len(sc.LevelWeights) > 0 {
		w := normalize(sc.LevelWeights)
		var err error
		lvlDraw, err = dist.NewCategorical(w)
		if err != nil {
			return nil, fmt.Errorf("loadgen: level_weights: %w", err)
		}
	}
	phases := make([]RatePhase, len(sc.Phases))
	copy(phases, sc.Phases)
	sort.SliceStable(phases, func(i, j int) bool { return phases[i].At < phases[j].At })

	rateAt := func(t time.Duration) float64 {
		r := sc.Rate
		for _, p := range phases {
			if t >= p.At.D() {
				r = p.Rate
			}
		}
		return r
	}

	rng := rand.New(rand.NewSource(sc.Seed))
	var ops []Op
	t := time.Duration(0)
	for {
		// Exponential inter-arrival at the rate in force now: a Poisson
		// process with piecewise-constant intensity.
		gap := time.Duration(rng.ExpFloat64() / rateAt(t) * float64(time.Second))
		if gap <= 0 {
			gap = time.Nanosecond
		}
		t += gap
		if t >= sc.Duration.D() {
			return ops, nil
		}
		op := Op{
			At:   t,
			Put:  rng.Float64() < sc.PutFraction,
			Obj:  rng.Intn(sc.Objects),
			Seed: rng.Int63(),
		}
		if lvlDraw != nil {
			op.Level = lvlDraw.Draw(rng)
		} else {
			op.Level = rng.Intn(levels)
		}
		ops = append(ops, op)
	}
}

func normalize(w []float64) []float64 {
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = v / sum
	}
	return out
}

// generator executes a planned op list open-loop: a scheduler goroutine
// releases ops at their planned times into a bounded queue; a fixed
// worker pool drains it. A full queue means the fleet is not keeping up
// — the op is counted as overload-dropped and the scheduler moves on,
// never blocking the arrival process on completions.
type generator struct {
	sc       *Scenario
	placed   *store.Placed
	encoders []*core.Encoder
	objs     []core.ObjectID

	mu      sync.Mutex
	put     []latSeries // per level
	get     []latSeries
	dropped int
	bytes   int64
}

// latSeries accumulates latencies (ms) and outcomes for one (kind,
// level) cell.
type latSeries struct {
	samples []float64
	errs    int
}

func newGenerator(sc *Scenario, placed *store.Placed, encoders []*core.Encoder, objs []core.ObjectID) *generator {
	n := len(sc.LevelFractions)
	return &generator{
		sc:       sc,
		placed:   placed,
		encoders: encoders,
		objs:     objs,
		put:      make([]latSeries, n),
		get:      make([]latSeries, n),
	}
}

// run plays the op list against the fleet, returning when every
// accepted op has completed. It honors ctx for early shutdown.
func (g *generator) run(ctx context.Context, ops []Op, start time.Time) {
	depth := g.sc.QueueDepth
	if depth <= 0 {
		depth = 4 * g.sc.Clients
	}
	queue := make(chan Op, depth)
	var workers sync.WaitGroup
	for i := 0; i < g.sc.Clients; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for op := range queue {
				g.execute(ctx, op)
			}
		}()
	}
	for _, op := range ops {
		if !sleepUntil(ctx, start.Add(op.At)) {
			break
		}
		select {
		case queue <- op:
		default:
			g.mu.Lock()
			g.dropped++
			g.mu.Unlock()
		}
	}
	close(queue)
	workers.Wait()
}

func (g *generator) execute(ctx context.Context, op Op) {
	opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(op.Seed))
	t0 := time.Now()
	var (
		err   error
		moved int
	)
	if op.Put {
		var blk *core.CodedBlock
		blk, err = g.encoders[op.Obj].Encode(rng, op.Level)
		if err == nil {
			blk.Object = g.objs[op.Obj]
			err = g.placed.Put(opCtx, blk)
			if err == nil {
				moved = len(blk.Payload)
			}
		}
	} else {
		var blocks []*core.CodedBlock
		blocks, err = g.placed.Collect(opCtx, g.objs[op.Obj], op.Level)
		if err == nil && len(blocks) == 0 {
			err = fmt.Errorf("loadgen: object %v level %d: no blocks", g.objs[op.Obj], op.Level)
		}
		for _, b := range blocks {
			moved += len(b.Payload)
		}
	}
	ms := float64(time.Since(t0)) / float64(time.Millisecond)

	g.mu.Lock()
	cell := &g.get[op.Level]
	if op.Put {
		cell = &g.put[op.Level]
	}
	cell.samples = append(cell.samples, ms)
	if err != nil {
		cell.errs++
	} else {
		g.bytes += int64(moved)
	}
	g.mu.Unlock()
}
