package mover

import (
	"context"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/store"
)

// ObjectPlan is one object's migration work order.
type ObjectPlan struct {
	// Object is the namespace to re-home.
	Object core.ObjectID
	// Stale lists reachable nodes holding the object's blocks without
	// owning it anymore: the transfer sources and, after verification,
	// the reclaim targets.
	Stale []string
	// Critical is the lowest level whose copies on the current owners
	// fall short of the provisioning targets, or the level count when
	// none does and only reclaim remains — the plan's sort key, so the
	// round spends its bandwidth on the objects whose most critical
	// data is least safe.
	Critical int
}

// Plan is one round's migration work, ordered most-critical-level-first
// (ties broken by object ID, so a fixed fleet state replans
// identically).
type Plan struct {
	// Objects is the work list; empty means placement and data agree.
	Objects []ObjectPlan
	// Unreachable lists ring members whose inventory could not be read.
	// Their holdings are invisible to this plan, so objects they hold
	// stale copies of are re-planned once they answer again.
	Unreachable []string
}

// plan scans every reachable ring member's per-object inventory and
// diffs it against current ring ownership: an object held by a node
// outside its successor list needs migration. Enumerating from node
// inventories — rather than replaying membership events — makes the
// round idempotent and restart-safe: whatever the mover missed while
// down is still visible as stale holdings.
func (m *Mover) plan(ctx context.Context) (*Plan, error) {
	members := m.placed.Members()
	type statResult struct {
		addr string
		st   store.Stats
		err  error
	}
	results := make([]statResult, len(members))
	var wg sync.WaitGroup
	for i, mem := range members {
		results[i].addr = mem.Addr
		if !mem.Alive {
			results[i].err = store.ErrStoreUnavailable
			continue
		}
		cl, err := m.placed.ClientFor(mem.Addr)
		if err != nil {
			results[i].err = err
			continue
		}
		wg.Add(1)
		go func(i int, cl *store.Client) {
			defer wg.Done()
			results[i].st, results[i].err = cl.Stat(ctx)
		}(i, cl)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	plan := &Plan{}
	holders := make(map[core.ObjectID]map[string][]store.LevelCount)
	for _, r := range results {
		if r.err != nil {
			plan.Unreachable = append(plan.Unreachable, r.addr)
			continue
		}
		for _, os := range r.st.PerObject {
			byAddr := holders[os.Object]
			if byAddr == nil {
				byAddr = make(map[string][]store.LevelCount)
				holders[os.Object] = byAddr
			}
			byAddr[r.addr] = os.PerLevel
		}
	}

	objs := make([]core.ObjectID, 0, len(holders))
	for obj := range holders {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })

	levels := m.placed.Levels()
	for _, obj := range objs {
		shard, err := m.placed.Shard(obj)
		if err != nil {
			// No alive successor: the object is unplaceable until the
			// fleet heals. Nothing can be moved or verified, so nothing
			// may be reclaimed either.
			m.met.objectsSkipped.Inc()
			continue
		}
		ownerSet := make(map[string]bool)
		for _, a := range shard.ReplicaLabels() {
			ownerSet[a] = true
		}
		op := ObjectPlan{Object: obj, Critical: levels}
		have := make([]int, levels)
		for addr, perLevel := range holders[obj] {
			if !ownerSet[addr] {
				op.Stale = append(op.Stale, addr)
				continue
			}
			for _, lc := range perLevel {
				if lc.Level >= 0 && lc.Level < levels {
					have[lc.Level] += lc.Count
				}
			}
		}
		if len(op.Stale) == 0 {
			continue // nothing misplaced; owner-side deficits are repair's job
		}
		sort.Strings(op.Stale)
		for lvl := 0; lvl < levels; lvl++ {
			if have[lvl] < m.targets[lvl]*shard.ReplicasFor(lvl) {
				op.Critical = lvl
				break
			}
		}
		plan.Objects = append(plan.Objects, op)
	}
	sort.SliceStable(plan.Objects, func(i, j int) bool {
		if plan.Objects[i].Critical != plan.Objects[j].Critical {
			return plan.Objects[i].Critical < plan.Objects[j].Critical
		}
		return plan.Objects[i].Object < plan.Objects[j].Object
	})
	return plan, nil
}
