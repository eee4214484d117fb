package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// ingest-disk: three phases over 3 diskstore (FsyncBatch) nodes behind
// Replicated, tolerance 1; PLC N=64 × 1 KiB in 4 levels.
//
//  1. open loop, ingestRate puts/s Poisson for 70 % of the window: each
//     operation encodes one coded block and puts it;
//  2. close every server and engine, reopen and replay them (three
//     times; the median is reopen_s), and check every acked block is back;
//  3. closed loop for 30 % of the window, at least one pass: read every
//     object back (level 0, then all levels) with each engine's block
//     cache at a quarter of its data. Objects are visited round-robin, so
//     an LRU cache that small never holds the next one: every pass is as
//     cold as the first.
//
// The objects split the planned puts evenly and each walks a level
// pattern of 1.45·N blocks, so each object gets the blocks it needs to
// decode whatever the seed (64 objects at a 30 s window).

const (
	ingestRate      = 600.0 // puts/s; see README "rates and capacity"
	ingestOpenShare = 0.7
	ingestFactor    = 1.45
	ingestMaxObj    = 64
)

type ingestState struct {
	f       *fleet
	repl    *store.Replicated
	objects []*object
}

func (s *ingestState) close() {
	s.repl.Close()
	s.f.close()
}

// ingestPlan is the open-loop put schedule: arrival times, and for each
// the object and level. A pure function of the pass's seed and window.
func ingestPlan(p *pass, g geometry) (plan []plannedOp, objects int) {
	plan = poissonPlan(p.rng(2), p.rateOr(ingestRate), time.Duration(float64(p.window)*ingestOpenShare))
	perObject := g.perLevel(ingestFactor) * g.levels()
	objects = len(plan) / perObject
	if objects < 1 {
		objects = 1
	}
	if objects > ingestMaxObj {
		objects = ingestMaxObj
	}
	rng := p.rng(3)
	patterns := make([][]int, objects)
	for i := range patterns {
		patterns[i] = g.pattern(rng, ingestFactor)
	}
	for i := range plan {
		o := i % objects
		plan[i].Put, plan[i].Obj = true, o
		plan[i].Level = patterns[o][(i/objects)%perObject]
	}
	return plan, objects
}

func newReplicatedOver(f *fleet, levels int, in *instr) (*store.Replicated, error) {
	cls, err := f.clients(len(f.nodes), true)
	if err != nil {
		return nil, err
	}
	return store.NewReplicated(cls, levels, store.ReplicatedConfig{Tolerance: 1, Metrics: in.registry()})
}

func runIngest(p *pass) error {
	g := newGeometry(64, 1024, 4)
	plan, nObj := ingestPlan(p, g)
	// A coded block is N coefficient bytes plus the payload on the wire;
	// the cache is sized from the planned volume so it is fixed before
	// the first put, then corrected to the stored volume at reopen.
	perNode := int64(len(plan)) * int64(g.n+g.payload) * 5 / 2 / 3
	rep := 0
	st, err := timeSetup(p, func(in *instr) (*ingestState, error) {
		rep++
		dir := filepath.Join(p.dataDir, fmt.Sprintf("ingest-%d", rep))
		f, err := bootFleet(fleetSpec{nodes: 3, disk: true, dir: dir, cacheBytes: perNode / 4}, in)
		if err != nil {
			return nil, err
		}
		repl, err := newReplicatedOver(f, g.levels(), in)
		if err != nil {
			f.close()
			return nil, err
		}
		s := &ingestState{f: f, repl: repl}
		rng := p.rng(1)
		for i := 0; i < nObj; i++ {
			o, err := g.newObject(objectID(p.seed, 2, i), g.newSources(rng))
			if err != nil {
				s.close()
				return nil, err
			}
			s.objects = append(s.objects, o)
		}
		return s, nil
	}, (*ingestState).close)
	if err != nil {
		return err
	}
	defer func() { st.close() }()

	ctx := context.Background()
	tr := p.in.tracer()
	p.startWindow(st.f.dialer)

	// Phase 1: open-loop ingest.
	var putMs samples
	type ackSet struct {
		mu   sync.Mutex
		wire map[string]bool
		l0   int
	}
	acked := make([]ackSet, nObj)
	for i := range acked {
		acked[i].wire = make(map[string]bool)
	}
	fr := replicatedFront(st.repl)
	rngs := make([]*rand.Rand, p.inflight) // one coefficient stream per worker
	for w := range rngs {
		rngs[w] = p.rng(int64(10 + w))
	}
	p.runOpenLoop(plan, func(w int, op plannedOp, due time.Time) {
		wire := p.putOp(ctx, fr, st.objects[op.Obj], rngs[w], op.Level, due, &putMs)
		if wire == nil {
			return
		}
		a := &acked[op.Obj]
		a.mu.Lock()
		a.wire[string(wire)] = true
		if op.Level == 0 {
			a.l0++
		}
		a.mu.Unlock()
	}, func(plannedOp) {
		p.check("put", fmt.Errorf("dropped: more than %v behind schedule", maxLag))
	})
	p.setMedian("put_p50_ms", &putMs)
	p.setTail("put_p99_ms", &putMs, 0.99)
	user := p.ackedPayload.Load()

	// Phase 2: close, reopen, replay.
	st.repl.Close()
	var reopenS []float64
	for i := 0; i < 3; i++ {
		blocksBefore := 0
		for _, n := range st.f.nodes {
			blocksBefore += n.engine.Len()
		}
		st.f.spec.cacheBytes = st.f.storedBytes() / int64(len(st.f.nodes)) / 4
		root := tr.root("op.reopen", p.opID())
		total, opens, err := st.f.reopen(root)
		root.end(blocksBefore)
		if err != nil {
			return fmt.Errorf("ingest-disk: reopen: %w", err)
		}
		reopenS = append(reopenS, total.Seconds())
		p.disk.openMs.add(ms(opens) / float64(len(st.f.nodes)))
		p.disk.replayPerS.add(float64(blocksBefore) / opens.Seconds())
		blocksAfter := 0
		for _, n := range st.f.nodes {
			blocksAfter += n.engine.Len()
		}
		p.attempted.Add(1)
		if blocksAfter != blocksBefore {
			p.fail("reopen %d: %d blocks replayed, %d stored before the close", i, blocksAfter, blocksBefore)
		}
	}
	p.set("reopen_s", median(reopenS), len(reopenS))
	stored := st.f.storedBytes()
	if user > 0 {
		p.set("stored_bytes_per_user_byte", float64(stored)/float64(user), 1)
	}
	for _, n := range st.f.nodes {
		if lister, ok := n.engine.(store.SegmentLister); ok {
			p.disk.segments += len(lister.SegmentInfos())
		}
	}
	// The old clients' pooled connections died with the old servers.
	if st.repl, err = newReplicatedOver(st.f, g.levels(), p.in); err != nil {
		return err
	}
	fr = replicatedFront(st.repl)

	// Phase 3: cold read-back, closed loop.
	var getMs, recoverL0Ms, recoverMs samples
	var decodedBytes atomic.Int64
	readWindow := p.window - time.Duration(float64(p.window)*ingestOpenShare)
	t0 := time.Now()
	rate := runClosedLoop(p.inflight, readWindow, nObj, func(_, i int) {
		o := st.objects[i%nObj]
		a := &acked[i%nObj]
		needL0 := 0
		if a.l0 >= g.lv.Size(0) {
			needL0 = 1 // enough level-0 blocks were acked: level 0 is owed
		}
		p.recoverObject(ctx, fr, g, o, "op.recover_l0", 0, needL0, time.Now(), &getMs, &recoverL0Ms)
		levels, got := p.recoverObject(ctx, fr, g, o, "op.recover", -1, needL0, time.Now(), nil, &recoverMs)
		if levels > 0 {
			decodedBytes.Add(int64(g.lv.CumSize(levels-1)) * int64(g.payload))
		}
		if i < nObj { // first pass: every acked block must have survived the reopen
			missing := missingAcked(a.wire, got)
			p.attempted.Add(1)
			if missing > 0 {
				p.fail("object %s: %d of %d acked blocks missing after reopen", o.id, missing, len(a.wire))
			}
		}
	})
	elapsed := time.Since(t0)
	p.set("ops_per_s", rate, recoverMs.n())
	p.set("readback_mb_per_s", float64(decodedBytes.Load())/1e6/elapsed.Seconds(), recoverMs.n())
	p.setMedian("get_p50_ms", &getMs)
	p.setMedian("recover_l0_p50_ms", &recoverL0Ms)
	p.setMedian("recover_p50_ms", &recoverMs)
	sample, _ := fr.collect(ctx, st.objects[0].id, -1)
	p.probes = probeInputs{g: g, blocks: sample}
	return nil
}
