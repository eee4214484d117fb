package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mover"
	"repro/internal/repair"
	"repro/internal/store"
)

// heal-after-loss: closed loop, one driver, 5 MemStore nodes on a Placed
// ring (replication 3, tolerance 1) plus one spare outside it; PLC
// N=64 × 1 KiB in 4 levels. Each cycle:
//
//	provision 8 objects → wipe 2 of the 5 nodes (each restarts empty) →
//	recover every object from the survivors → repair until every
//	object's audit is clean → join the spare → migrate until no node
//	holds an object it does not own → delete the objects, retire the spare.
//
// Liveness is set with SetAlive; how long gossip takes to notice is
// timer-bound and left out.

const (
	healRing    = 5
	healObjects = 8
	healWiped   = 2
	healFactor  = 1.5
	// healMaxRounds bounds the repair rounds per object and the mover
	// rounds per cycle; hitting it is a failed operation.
	healMaxRounds = 8
)

type healState struct {
	f       *fleet
	placed  *store.Placed
	mv      *mover.Mover
	sources [][][]byte
	spare   string
}

func (s *healState) close() {
	s.mv.Stop(context.Background())
	s.placed.Close()
	s.f.close()
}

func runHeal(p *pass) error {
	g := newGeometry(64, 1024, 4)
	targets := make([]int, g.levels())
	for k := range targets {
		targets[k] = g.perLevel(healFactor)
	}
	ctx := context.Background()

	st, err := timeSetup(p, func(in *instr) (*healState, error) {
		f, err := bootFleet(fleetSpec{nodes: healRing + 1}, in)
		if err != nil {
			return nil, err
		}
		placed, err := newPlacedOver(f, healRing, g.levels(), in, true)
		if err != nil {
			f.close()
			return nil, err
		}
		mv, err := mover.New(placed, mover.Config{
			Scheme: core.PLC, Levels: g.lv, Targets: targets, Seed: p.seed, Metrics: in.registry(),
		})
		if err != nil {
			placed.Close()
			f.close()
			return nil, err
		}
		s := &healState{f: f, placed: placed, mv: mv, spare: f.nodes[healRing].addr}
		rng := p.rng(1)
		for i := 0; i < healObjects; i++ {
			s.sources = append(s.sources, g.newSources(rng))
		}
		return s, nil
	}, (*healState).close)
	if err != nil {
		return err
	}
	defer st.close()

	tr := p.in.tracer()
	fr := placedFront(st.placed)
	addrs := st.f.addrs()
	setAlive := func(nodes []int, alive bool) {
		for _, i := range nodes {
			if err := st.placed.SetAlive(addrs[i], alive); err != nil {
				p.fail("set node %d alive=%v: %v", i, alive, err)
			}
		}
	}
	p.startWindow(st.f.dialer)

	var putMs, publishMs, getMs, recoverL0Ms, recoverMs, healS, healWire, migrateS samples
	start := time.Now()
	deadline := start.Add(p.window)
	cycles := 0
	for ; cycles == 0 || time.Now().Before(deadline); cycles++ {
		rng := p.rng(int64(100 + cycles))

		// Provision.
		objs := make([]*object, healObjects)
		var user int64
		for i := range objs {
			o, acked, err := p.publishObject(ctx, fr, g, objectID(p.seed, 4, cycles*healObjects+i), st.sources[i], rng, healFactor, &putMs, &publishMs)
			if err != nil {
				return err
			}
			objs[i], user = o, user+acked
		}
		owners := make([][]string, healObjects) // under full membership
		for i, o := range objs {
			if owners[i], err = st.placed.ReplicasForObject(o.id); err != nil {
				return err
			}
		}

		// Lose two nodes: out of the ring, back with empty engines.
		victims := rng.Perm(healRing)[:healWiped]
		setAlive(victims, false)
		for _, v := range victims {
			if err := st.f.wipe(v); err != nil {
				return fmt.Errorf("heal-after-loss: wipe node %d: %w", v, err)
			}
		}

		// What the survivors still give. Level 0 sits on every owner and
		// at most two of three are gone, so level 0 is owed.
		left := 0
		for _, o := range objs {
			p.recoverObject(ctx, fr, g, o, "op.recover_l0", 0, 1, time.Now(), &getMs, &recoverL0Ms)
			levels, got := p.recoverObject(ctx, fr, g, o, "op.recover", -1, 1, time.Now(), nil, &recoverMs)
			left += levels
			if p.probes.blocks == nil {
				p.probes = probeInputs{g: g, blocks: got, placed: st.placed}
			}
		}

		p.heal.cycleLevels = append(p.heal.cycleLevels, float64(left)/healObjects)

		// Heal: the nodes rejoin empty; repair each object until its audit
		// is clean.
		setAlive(victims, true)
		root := tr.root("op.heal", p.opID())
		t0 := time.Now()
		wire0 := st.f.dialer.bytes()
		regenerated := 0
		for _, o := range objs {
			n, err := p.healObject(ctx, st.placed, root, g, o.id, targets)
			regenerated += n
			p.check("heal", err)
		}
		healS.add(time.Since(t0).Seconds())
		root.end(regenerated)
		if regenerated > 0 {
			healWire.add(float64(st.f.dialer.bytes()-wire0) / float64(regenerated))
		}

		// A second, different pair down. Repair restores copy counts, not
		// per-node inventories: a wiped owner comes back holding only its
		// share of the regenerated blocks (8 of level 0 here), so level 0
		// is owed exactly when an owner that was never wiped is still up.
		// Whatever decodes must be bit-exact either way.
		second := []int{(victims[0] + 1) % healRing, (victims[1] + 1) % healRing}
		gone := make(map[string]bool)
		for _, i := range append(append([]int(nil), victims...), second...) {
			gone[addrs[i]] = true
		}
		setAlive(second, false)
		for i, o := range objs {
			need := 0
			for _, a := range owners[i] {
				if !gone[a] {
					need = 1
				}
			}
			p.recoverObject(ctx, fr, g, o, "op.verify", 0, need, time.Now(), nil, nil)
		}
		setAlive(second, true)

		// Migrate: the spare joins, ownership shifts, the mover re-homes.
		root = tr.root("op.migrate", p.opID())
		t0 = time.Now()
		p.check("join spare", st.placed.Join(st.spare))
		rounds := 0
		var migrateErr error
		for ; migrateErr == nil; rounds++ {
			sp := root.child("mover.run_once")
			rep, err := st.mv.RunOnce(ctx)
			sp.end(rep.Migrated)
			p.heal.migrated += int64(rep.Migrated)
			p.heal.moved += int64(rep.Regenerated + rep.Copied)
			p.heal.moverBytes += rep.BytesCollected
			p.heal.reclaimed += int64(rep.BlocksReclaimed)
			if err != nil {
				migrateErr = err
			} else if rep.Plan == nil || len(rep.Plan.Objects) == 0 {
				break
			} else if rounds >= healMaxRounds {
				migrateErr = fmt.Errorf("stale holders remain after %d rounds", rounds)
			}
		}
		p.check("migrate", migrateErr)
		migrateS.add(time.Since(t0).Seconds())
		root.end(rounds)
		p.heal.moverRounds.add(float64(rounds))

		// The stale holders are reclaimed, so a collect through the ring
		// reaches the new owner set and nobody else: it must serve level 0.
		for _, o := range objs {
			p.recoverObject(ctx, fr, g, o, "op.verify", 0, 1, time.Now(), nil, nil)
		}
		if user > 0 {
			p.heal.cycleStored = append(p.heal.cycleStored, float64(st.f.storedBytes())/float64(user))
		}

		// Reset: drop the objects everywhere, retire the spare.
		for _, addr := range addrs {
			cl, err := st.placed.ClientFor(addr)
			if err != nil {
				return err
			}
			for _, o := range objs {
				if _, err := cl.Delete(ctx, o.id); err != nil {
					p.fail("delete %s on %s: %v", o.id, addr, err)
				}
			}
		}
		p.check("retire spare", st.placed.Leave(st.spare))
	}

	p.set("ops_per_s", float64(cycles)/time.Since(start).Seconds(), cycles)
	p.setMedian("put_p50_ms", &putMs)
	p.setTail("put_p99_ms", &putMs, 0.99)
	p.setMedian("publish_p50_ms", &publishMs)
	p.setMedian("get_p50_ms", &getMs)
	p.setMedian("recover_l0_p50_ms", &recoverL0Ms)
	p.setMedian("recover_p50_ms", &recoverMs)
	p.set("levels_after_loss", mean(p.heal.cycleLevels), healObjects*len(p.heal.cycleLevels))
	p.setMedian("heal_s", &healS)
	p.setMedian("heal_wire_bytes_per_block", &healWire)
	p.setMedian("migrate_s", &migrateS)
	p.set("stored_bytes_per_user_byte", median(p.heal.cycleStored), len(p.heal.cycleStored))
	return nil
}

// healObject runs repair rounds on one object until its audit shows no
// deficient level, and returns the blocks regenerated.
func (p *pass) healObject(ctx context.Context, placed *store.Placed, root spanRef, g geometry, obj core.ObjectID, targets []int) (int, error) {
	d, err := repair.NewObject(placed, obj, repair.Config{
		Scheme: core.PLC, Levels: g.lv, Targets: targets, BlockBudget: 4 * g.n,
		Seed: p.seed, Metrics: p.in.registry(),
	})
	if err != nil {
		return 0, err
	}
	defer d.Stop(ctx)
	regenerated := 0
	for rounds := 0; ; rounds++ {
		shard, err := placed.Shard(obj)
		if err != nil {
			return regenerated, err
		}
		sp := root.child("repair.audit")
		audit, err := repair.AuditFleet(ctx, shard, repair.AuditConfig{Object: obj, Targets: targets})
		sp.end(0)
		if err != nil {
			return regenerated, err
		}
		if audit.Healthy() {
			p.heal.repairRounds.add(float64(rounds))
			return regenerated, nil
		}
		if rounds >= healMaxRounds {
			return regenerated, fmt.Errorf("object %s: %d copies short after %d repair rounds", obj, audit.TotalDeficit(), rounds)
		}
		sp = root.child("repair.run_once")
		rep, err := d.RunOnce(ctx)
		sp.end(rep.Regenerated)
		regenerated += rep.Regenerated
		p.heal.regenerated += int64(rep.Regenerated)
		p.heal.collected += rep.BytesCollected
		p.heal.placed += rep.BytesPlaced
		p.heal.skipped += int64(len(rep.SkippedLevels))
		if rep.Audit != nil {
			p.heal.levels += int64(len(rep.Audit.Deficient()))
		}
		if err != nil {
			return regenerated, err
		}
	}
}
