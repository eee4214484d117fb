// Package repair keeps a replicated priority block store decodable
// across rounds of churn — without ever decoding.
//
// The paper stores coded blocks so data outlives the nodes that hold
// it, but one-shot provisioning only *delays* death: every failed
// replica removes copies, and once too few survive, low-priority levels
// stop decoding first and the critical prefix follows. The classic fix
// — decode the sources, re-encode, re-distribute — defeats partial
// recovery (it needs full rank somewhere) and moves every byte twice.
// The distributed-storage line of related work (Dimakis et al.,
// "Network Coding for Distributed Storage Systems") supplies the right
// primitive instead: a fresh random combination of surviving *coded*
// blocks is itself a valid coded block, so redundancy is regenerated
// from whatever survives, touching no source block.
//
// The package has three layers:
//
//   - recombination: core.Recombine / core.RecombineRanked (the
//     algebra lives next to the encoder, in internal/core);
//   - audit: AuditFleet compares each replica's per-level inventory
//     against per-level targets (dist.Apportion derives them from the
//     priority distribution) and the store's replication policy,
//     yielding a deficit report ordered most-critical-level-first;
//   - heal: Heal.Object is the one per-object step — given the owners'
//     audit, gather survivors, recombine fresh blocks for the deficient
//     levels and place them on the under-provisioned owners, and, given
//     stale holders, verify and release — which the repair daemon runs
//     as its one-object round and the fleet's healer (internal/mover)
//     per planned object. The background loop that schedules rounds is
//     the mover's; Counters is the round and fill series both register.
package repair

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/store"
)

// AuditConfig describes what a healthy fleet looks like.
type AuditConfig struct {
	// Object scopes the audit to one namespace: per-level counts are
	// read from that object's section of each replica's inventory. The
	// zero value audits the key-less namespace, object zero.
	Object core.ObjectID
	// Targets are the per-level distinct-block targets (len = store
	// levels): the put-time level draw when it is known exactly, or
	// dist.Apportion of the priority distribution over the block count.
	Targets []int
}

// LevelReport is one level's audit line.
type LevelReport struct {
	// Level is the priority level (0 = most critical).
	Level int
	// Replicas is the level's replication factor, ReplicasFor(Level).
	Replicas int
	// Distinct is the target number of distinct blocks of this level.
	Distinct int
	// WantCopies = Distinct * Replicas, the fleet-wide copy target.
	WantCopies int
	// HaveCopies is the copies found across reachable replicas.
	HaveCopies int
	// Deficit = max(0, WantCopies - HaveCopies).
	Deficit int
	// PerReplica is each replica's copy count of this level; -1 marks a
	// replica the audit could not reach.
	PerReplica []int
}

// Audit is one fleet inventory scan. Levels is ordered ascending by
// level — most critical first, the order repair spends its budget in.
type Audit struct {
	// Reachable and Unreachable partition the fleet at scan time.
	Reachable   int
	Unreachable int
	// Levels holds one report per priority level, ascending.
	Levels []LevelReport
}

// Deficient returns the levels with a positive copy deficit, still
// ordered most-critical-first.
func (a *Audit) Deficient() []LevelReport {
	var out []LevelReport
	for _, lr := range a.Levels {
		if lr.Deficit > 0 {
			out = append(out, lr)
		}
	}
	return out
}

// Healthy reports whether every replica answered and no level is below
// its copy target.
func (a *Audit) Healthy() bool {
	return a.Unreachable == 0 && len(a.Deficient()) == 0
}

// TotalDeficit sums the per-level copy deficits.
func (a *Audit) TotalDeficit() int {
	n := 0
	for _, lr := range a.Levels {
		n += lr.Deficit
	}
	return n
}

// checkTargets validates per-level distinct-block targets against the
// store's level count.
func checkTargets(targets []int, levels int) error {
	if len(targets) != levels {
		return fmt.Errorf("repair: %d targets, want %d levels", len(targets), levels)
	}
	for i, t := range targets {
		if t < 0 {
			return fmt.Errorf("repair: negative target %d at level %d", t, i)
		}
	}
	return nil
}

// AuditFleet scans every replica's per-level inventory (concurrently,
// tolerating unreachable replicas) and audits it with AuditStats.
func AuditFleet(ctx context.Context, r *store.Replicated, cfg AuditConfig) (*Audit, error) {
	if r == nil {
		return nil, fmt.Errorf("repair: nil replicated store")
	}
	if err := checkTargets(cfg.Targets, r.Levels()); err != nil {
		return nil, err
	}
	stats, errs := r.StatAll(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return AuditStats(r, cfg, stats, errs), nil
}

// AuditStats compares the replicas' inventory snapshots — stats[i] and
// errs[i] for r's replica i, as StatAll returns them — against the
// targets: level k should exist as Distinct(k) distinct blocks with
// ReplicasFor(k) copies each. Copies sitting on unreachable replicas do
// not count — they are exactly what churn takes away. cfg.Targets must
// hold one target per level of r.
func AuditStats(r *store.Replicated, cfg AuditConfig, stats []store.Stats, errs []error) *Audit {
	n := r.Levels()
	// held is each reachable replica's section of the audited object's
	// inventory (nil when it holds none); unreachable ones stay out.
	audit := &Audit{Levels: make([]LevelReport, n)}
	held := make([][]store.LevelCount, len(stats))
	reachable := make([]bool, len(stats))
	for i, st := range stats {
		if reachable[i] = errs[i] == nil; !reachable[i] {
			audit.Unreachable++
			continue
		}
		audit.Reachable++
		for _, os := range st.PerObject {
			if os.Object == cfg.Object {
				held[i] = os.PerLevel
				break
			}
		}
	}
	for lvl := 0; lvl < n; lvl++ {
		lr := LevelReport{
			Level:      lvl,
			Replicas:   r.ReplicasFor(lvl),
			Distinct:   cfg.Targets[lvl],
			PerReplica: make([]int, len(stats)),
		}
		lr.WantCopies = lr.Distinct * lr.Replicas
		for i := range stats {
			if !reachable[i] {
				lr.PerReplica[i] = -1
				continue
			}
			for _, lc := range held[i] {
				if lc.Level == lvl {
					lr.PerReplica[i] = lc.Count
					lr.HaveCopies += lc.Count
					break
				}
			}
		}
		if lr.Deficit = lr.WantCopies - lr.HaveCopies; lr.Deficit < 0 {
			lr.Deficit = 0
		}
		audit.Levels[lvl] = lr
	}
	return audit
}
