package mover

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/repair"
	"repro/internal/store"
)

// ObjectPlan is one object's heal work order.
type ObjectPlan struct {
	// Object is the namespace to heal.
	Object core.ObjectID
	// Stale lists reachable nodes holding the object's blocks without
	// owning it anymore: the transfer sources and, after verification,
	// the reclaim targets. Empty for an object that is only short on
	// its owners.
	Stale []string
	// Critical is the lowest level whose copies on the current owners
	// fall short of the provisioning targets, or the level count when
	// none does and only reclaim remains — the plan's sort key, so the
	// round spends its bandwidth on the objects whose most critical
	// data is least safe.
	Critical int
	// Audit is the owners' audit the plan computed from the round's
	// inventory scan; the heal step acts on it without scanning again.
	Audit *repair.Audit

	shard *store.Replicated // the owners Audit was taken over
}

// Plan is one round's heal work, ordered most-critical-level-first
// (ties broken by object ID, so a fixed fleet state replans
// identically).
type Plan struct {
	// Objects is the work list; empty means placement and data agree
	// and every owner meets its targets.
	Objects []ObjectPlan
	// Unreachable lists ring members whose inventory could not be read.
	// Their holdings are invisible to this plan, so objects they hold
	// stale copies of are re-planned once they answer again.
	Unreachable []string
}

// plan scans every reachable ring member's per-object inventory once
// and plans each object found there that needs healing: one held by a
// node outside its successor list (displaced), or one whose owners fall
// short of the targets by repair's audit rule (short). Enumerating from
// node inventories — rather than replaying membership events — makes
// the round idempotent and restart-safe: whatever the mover missed
// while down is still visible as stale holdings or short owners. When
// no member answers at all, plan returns the plan with an error.
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := m.placed.ClientFor(mem.Addr)
			if err == nil {
				results[i].st, err = cl.Stat(ctx)
			}
			results[i].err = err
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	plan := &Plan{}
	byAddr := make(map[string]statResult, len(results))
	holders := make(map[core.ObjectID][]string)
	for _, r := range results {
		byAddr[r.addr] = r
		if r.err != nil {
			plan.Unreachable = append(plan.Unreachable, r.addr)
			continue
		}
		for _, os := range r.st.PerObject {
			holders[os.Object] = append(holders[os.Object], r.addr)
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
		owners := shard.ReplicaLabels()
		ownerSet := make(map[string]bool, len(owners))
		for _, a := range owners {
			ownerSet[a] = true
		}
		op := ObjectPlan{Object: obj, Critical: levels, shard: shard}
		for _, addr := range holders[obj] {
			if !ownerSet[addr] {
				op.Stale = append(op.Stale, addr)
			}
		}
		// The owners' copies are audited by repair's rule, from the
		// inventories already fetched.
		stats := make([]store.Stats, len(owners))
		errs := make([]error, len(owners))
		for i, a := range owners {
			stats[i], errs[i] = byAddr[a].st, byAddr[a].err
		}
		op.Audit = repair.AuditStats(shard, repair.AuditConfig{Object: obj, Targets: m.heal.Targets}, stats, errs)
		if deficient := op.Audit.Deficient(); len(deficient) > 0 {
			op.Critical = deficient[0].Level
		} else if len(op.Stale) == 0 {
			continue // placed where it belongs, and whole
		}
		sort.Strings(op.Stale)
		plan.Objects = append(plan.Objects, op)
	}
	sort.SliceStable(plan.Objects, func(i, j int) bool {
		if plan.Objects[i].Critical != plan.Objects[j].Critical {
			return plan.Objects[i].Critical < plan.Objects[j].Critical
		}
		return plan.Objects[i].Object < plan.Objects[j].Object
	})
	if len(plan.Unreachable) == len(members) {
		return plan, fmt.Errorf("%w: all %d ring members unreachable", store.ErrStoreUnavailable, len(members))
	}
	return plan, nil
}
