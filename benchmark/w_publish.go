package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/store"
)

// publish-recover: closed loop, min(nproc,4) clients. Each cycle
// publishes one object (encode 1.3·N coded blocks, put them), recovers
// its level 0, recovers all of it, checks both bit-exact, and deletes it.
// 3 MemStore nodes behind Replicated; PLC N=512 × 4 KiB in 8 levels.
//
// N is 512 where the issue said 256: coding cost grows with N², the
// wire's with N, and at 256 the per-block wire path left coding a fifth
// of a publish and half of a recover. At 512 decoding is two thirds of a
// recover — the workload exists to put coding on the critical path.
//
// Coded-block levels follow geometry.pattern instead of EncodeBatch's
// random draw, which leaves some level short of rank about one cycle in
// twenty at 1.3·N.

type publishState struct {
	f    *fleet
	repl *store.Replicated
	// pool holds two source sets per client, drawn once: two megabytes of
	// fresh random bytes per cycle would be the benchmark's cost, not the
	// store's.
	pool [][][]byte
}

func (s *publishState) close() {
	s.repl.Close()
	s.f.close()
}

func runPublish(p *pass) error {
	g := newGeometry(512, 4096, 8)
	st, err := timeSetup(p, func(in *instr) (*publishState, error) {
		f, err := bootFleet(fleetSpec{nodes: 3}, in)
		if err != nil {
			return nil, err
		}
		repl, err := newReplicatedOver(f, g.levels(), in)
		if err != nil {
			f.close()
			return nil, err
		}
		rng := p.rng(1)
		s := &publishState{f: f, repl: repl}
		for i := 0; i < 2*p.inflight; i++ {
			s.pool = append(s.pool, g.newSources(rng))
		}
		return s, nil
	}, (*publishState).close)
	if err != nil {
		return err
	}
	defer st.close()

	var publishMs, putMs, getMs, recoverL0Ms, recoverMs, stored samples
	ctx := context.Background()
	fr := replicatedFront(st.repl)
	clients := st.repl.Clients()
	p.startWindow(st.f.dialer)

	rate := runClosedLoop(p.inflight, p.window, p.inflight, func(w, i int) {
		rng := p.rng(int64(100 + i))
		id := objectID(p.seed, 1, i)

		obj, user, err := p.publishObject(ctx, fr, g, id, st.pool[(2*w+i%2)%len(st.pool)], rng, 1.3, &putMs, &publishMs)
		if !p.check("publish: new encoder", err) {
			return
		}
		p.recoverObject(ctx, fr, g, obj, "op.recover_l0", 0, 1, time.Now(), &getMs, &recoverL0Ms)
		_, got := p.recoverObject(ctx, fr, g, obj, "op.recover", -1, g.levels(), time.Now(), nil, &recoverMs)

		// What every replica holds of this object, while it exists.
		stats, errs := st.repl.StatAll(ctx)
		var held int64
		for r, s := range stats {
			if errs[r] != nil {
				p.fail("stat replica %d: %v", r, errs[r])
				continue
			}
			for _, os := range s.PerObject {
				if os.Object == id {
					held += os.Bytes
				}
			}
		}
		if user > 0 {
			stored.add(float64(held) / float64(user))
		}
		for _, cl := range clients {
			if _, err := cl.Delete(ctx, id); err != nil {
				p.fail("delete %s: %v", id, err)
			}
		}
		if w == 0 && p.probes.blocks == nil {
			p.probes = probeInputs{g: g, blocks: got}
		}
	})
	if publishMs.n() == 0 {
		return fmt.Errorf("publish-recover: no cycle completed in %v", p.window)
	}

	p.set("ops_per_s", rate, publishMs.n())
	p.setMedian("publish_p50_ms", &publishMs)
	p.setMedian("put_p50_ms", &putMs)
	p.setTail("put_p99_ms", &putMs, 0.99)
	p.setMedian("get_p50_ms", &getMs)
	p.setMedian("recover_l0_p50_ms", &recoverL0Ms)
	p.setMedian("recover_p50_ms", &recoverMs)
	p.setMedian("stored_bytes_per_user_byte", &stored)
	return nil
}
