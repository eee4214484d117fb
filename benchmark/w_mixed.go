package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/store"
)

// mixed-steady: 4 MemStore nodes behind a Placed ring, replication 3;
// PLC N=16 × 1 KiB in 4 levels. Two thirds of the window is an open
// loop at mixedRate ops/s Poisson — 70 % collects of a read-set object
// up to a uniformly drawn level, 30 % puts of one coded block to a
// write-set object at a uniformly drawn level — and the last third is
// the same mix in a closed loop at min(nproc,4) clients.
//
// The read set is provisioned before the clock starts and never written
// to; puts go to the disjoint write set. What a get returns therefore
// does not grow with the run.

const (
	mixedRate      = 3000.0 // ops/s; see README "rates and capacity"
	mixedOpenShare = 2.0 / 3
	mixedPutShare  = 0.3
	mixedObjects   = 32 // per set
	mixedFactor    = 1.5
)

type mixedState struct {
	f      *fleet
	placed *store.Placed
	reads  []*object
	writes []*object
	// provisioned is the coded payload the read set holds.
	provisioned int64
}

func (s *mixedState) close() {
	s.placed.Close()
	s.f.close()
}

// newPlacedOver builds a ring over the fleet's first n nodes; nodes
// joining later are dialed the same way.
func newPlacedOver(f *fleet, n, levels int, in *instr, instrumented bool) (*store.Placed, error) {
	cls, err := f.clients(n, instrumented)
	if err != nil {
		return nil, err
	}
	cfg := store.PlacedConfig{
		Replication: 3,
		Tolerance:   1,
		NewClient:   func(addr string) (*store.Client, error) { return f.client(addr, instrumented) },
	}
	if instrumented {
		cfg.Metrics = in.registry()
	}
	return store.NewPlaced(cls, levels, cfg)
}

func mixedPlan(p *pass, g geometry) []plannedOp {
	plan := poissonPlan(p.rng(2), p.rateOr(mixedRate), time.Duration(float64(p.window)*mixedOpenShare))
	rng := p.rng(3)
	for i := range plan {
		mixedDraw(rng, g, &plan[i])
	}
	return plan
}

func mixedDraw(rng *rand.Rand, g geometry, op *plannedOp) {
	op.Put = rng.Float64() < mixedPutShare
	op.Obj = rng.Intn(mixedObjects)
	op.Level = rng.Intn(g.levels())
}

func runMixed(p *pass) error {
	g := newGeometry(16, 1024, 4)
	plan := mixedPlan(p, g)
	ctx := context.Background()

	st, err := timeSetup(p, func(in *instr) (*mixedState, error) {
		// Provision through an uninstrumented front end on an
		// uninstrumented fleet; the traced pass attaches afterwards, so
		// its series hold the window and nothing else.
		f, err := bootFleet(fleetSpec{nodes: 4}, nil)
		if err != nil {
			return nil, err
		}
		s := &mixedState{f: f}
		prov, err := newPlacedOver(f, 4, g.levels(), nil, false)
		if err != nil {
			f.close()
			return nil, err
		}
		rng := p.rng(1)
		for i := 0; i < 2*mixedObjects; i++ {
			o, err := g.newObject(objectID(p.seed, 3, i), g.newSources(rng))
			if err != nil {
				prov.Close()
				f.close()
				return nil, err
			}
			if i >= mixedObjects {
				s.writes = append(s.writes, o)
				continue
			}
			s.reads = append(s.reads, o)
			for _, lvl := range g.pattern(rng, mixedFactor) {
				b, err := o.encode(rng, lvl)
				if err == nil {
					err = prov.Put(ctx, b)
				}
				if err != nil {
					prov.Close()
					f.close()
					return nil, fmt.Errorf("provision read set: %w", err)
				}
				s.provisioned += payloadBytes(b)
			}
		}
		prov.Close()
		if in != nil {
			if err := f.attach(in); err != nil {
				f.close()
				return nil, err
			}
		}
		if s.placed, err = newPlacedOver(f, 4, g.levels(), in, true); err != nil {
			f.close()
			return nil, err
		}
		return s, nil
	}, (*mixedState).close)
	if err != nil {
		return err
	}
	defer st.close()

	fr := placedFront(st.placed)
	p.startWindow(st.f.dialer)

	var mu sync.Mutex
	acked := make([]map[string]bool, mixedObjects)
	for i := range acked {
		acked[i] = make(map[string]bool)
	}
	// do runs one operation of the mix, timing it from `from`; the series
	// are nil in the closed-loop tail, which reports throughput only.
	do := func(rng *rand.Rand, op plannedOp, from time.Time, putMs, getMs, l0Ms, allMs *samples) {
		if !op.Put {
			var total *samples
			switch op.Level {
			case 0:
				total = l0Ms
			case g.levels() - 1:
				total = allMs
			}
			p.recoverObject(ctx, fr, g, st.reads[op.Obj], "op.get", op.Level, op.Level+1, from, getMs, total)
			return
		}
		wire := p.putOp(ctx, fr, st.writes[op.Obj], rng, op.Level, from, putMs)
		if wire == nil {
			return
		}
		mu.Lock()
		acked[op.Obj][string(wire)] = true
		mu.Unlock()
	}

	// Phase 1: open loop, timed from each operation's due time.
	var putMs, getMs, recoverL0Ms, recoverMs samples
	rngs := make([]*rand.Rand, p.inflight) // one coefficient stream per worker
	for w := range rngs {
		rngs[w] = p.rng(int64(10 + w))
	}
	p.runOpenLoop(plan, func(w int, op plannedOp, due time.Time) {
		do(rngs[w], op, due, &putMs, &getMs, &recoverL0Ms, &recoverMs)
	}, func(plannedOp) {
		p.check("op", fmt.Errorf("dropped: more than %v behind schedule", maxLag))
	})

	// Phase 2: the same mix, closed loop.
	tail := p.window - time.Duration(float64(p.window)*mixedOpenShare)
	rate := runClosedLoop(p.inflight, tail, 0, func(w, _ int) {
		var op plannedOp
		mixedDraw(rngs[w], g, &op)
		do(rngs[w], op, time.Now(), nil, nil, nil, nil)
	})

	// Every acked put must be there to read.
	for i, o := range st.writes {
		got, err := st.placed.Collect(ctx, o.id, -1)
		if !p.check("verify write set", err) {
			continue
		}
		if missing := missingAcked(acked[i], got); missing > 0 {
			p.fail("object %s: %d of %d acked blocks missing", o.id, missing, len(acked[i]))
		}
	}
	sample, _ := st.placed.Collect(ctx, st.reads[0].id, -1)
	p.probes = probeInputs{g: g, blocks: sample, placed: st.placed}

	p.setMedian("put_p50_ms", &putMs)
	p.setTail("put_p99_ms", &putMs, 0.99)
	p.setMedian("get_p50_ms", &getMs)
	p.setTail("get_p99_ms", &getMs, 0.99)
	p.setMedian("recover_l0_p50_ms", &recoverL0Ms)
	p.setMedian("recover_p50_ms", &recoverMs)
	p.set("ops_per_s", rate, int(rate*tail.Seconds()))
	p.set("stored_bytes_per_user_byte", float64(st.f.storedBytes())/float64(st.provisioned+p.ackedPayload.Load()), 1)
	return nil
}
