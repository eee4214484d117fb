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
// The package has four layers:
//
//   - recombination: core.Recombine / core.RecombineRanked (the
//     algebra lives next to the encoder, in internal/core);
//   - audit: AuditFleet compares each replica's per-level inventory
//     against targets derived from the priority distribution and the
//     store's replication policy, yielding a deficit report ordered
//     most-critical-level-first;
//   - fill: Fill recombines survivors of each deficient level and
//     places the regenerated blocks on the replicas the audit found
//     under-provisioned — the one transfer primitive, which the
//     migration mover (internal/mover) runs too;
//   - loop: Loop is the one background control loop; Daemon hangs
//     audit → collect → fill on it, the mover its plan and reclaim.
package repair

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/store"
)

// AuditConfig describes what a healthy fleet looks like.
type AuditConfig struct {
	// Object scopes the audit to one namespace: per-level counts are
	// read from that object's section of each replica's inventory. The
	// zero value audits the key-less namespace, object zero.
	Object core.ObjectID
	// Dist is the priority distribution the deployment was provisioned
	// with: level k's target share of distinct coded blocks.
	Dist core.PriorityDistribution
	// TotalBlocks is M, the number of distinct coded blocks at full
	// provisioning; per-level distinct targets are apportioned from
	// Dist by largest remainder.
	TotalBlocks int
	// Targets, when non-nil, overrides the apportionment with exact
	// per-level distinct-block targets (len = store levels). Useful when
	// the put-time level draw is known precisely.
	Targets []int
}

// perLevelFor selects the audited object's section of one replica's
// inventory (nil when the replica holds none of it).
func (cfg *AuditConfig) perLevelFor(st store.Stats) []store.LevelCount {
	for _, os := range st.PerObject {
		if os.Object == cfg.Object {
			return os.PerLevel
		}
	}
	return nil
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

// apportion splits total into len(shares) integer parts proportional to
// shares, summing exactly to total (largest-remainder rounding; ties go
// to the more critical level).
func apportion(shares []float64, total int) ([]int, error) {
	sum := 0.0
	for i, s := range shares {
		if s < 0 {
			return nil, fmt.Errorf("repair: negative share %g at level %d", s, i)
		}
		sum += s
	}
	if sum <= 0 {
		return nil, fmt.Errorf("repair: priority distribution sums to %g, want > 0", sum)
	}
	out := make([]int, len(shares))
	type rem struct {
		level int
		frac  float64
	}
	rems := make([]rem, len(shares))
	used := 0
	for i, s := range shares {
		exact := s / sum * float64(total)
		out[i] = int(exact)
		used += out[i]
		rems[i] = rem{level: i, frac: exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].level < rems[j].level
	})
	for i := 0; i < total-used; i++ {
		out[rems[i%len(rems)].level]++
	}
	return out, nil
}

// DistinctTargets resolves the per-level distinct-block targets the
// audit measures against — Targets verbatim when set, otherwise Dist
// apportioned over TotalBlocks by largest remainder. Exported so the
// migration mover verifies against exactly the targets repair enforces.
func (cfg *AuditConfig) DistinctTargets(levels int) ([]int, error) {
	if cfg.Targets != nil {
		if len(cfg.Targets) != levels {
			return nil, fmt.Errorf("repair: %d explicit targets, want %d levels", len(cfg.Targets), levels)
		}
		for i, t := range cfg.Targets {
			if t < 0 {
				return nil, fmt.Errorf("repair: negative target %d at level %d", t, i)
			}
		}
		return cfg.Targets, nil
	}
	if len(cfg.Dist) != levels {
		return nil, fmt.Errorf("repair: distribution has %d entries, want %d levels", len(cfg.Dist), levels)
	}
	if cfg.TotalBlocks <= 0 {
		return nil, fmt.Errorf("repair: TotalBlocks %d, want > 0", cfg.TotalBlocks)
	}
	return apportion(cfg.Dist, cfg.TotalBlocks)
}

// AuditFleet scans every replica's per-level inventory (concurrently,
// tolerating unreachable replicas) and compares it against the targets:
// level k should exist as Distinct(k) distinct blocks with
// ReplicasFor(k) copies each. Copies sitting on unreachable replicas do
// not count — they are exactly what churn takes away.
func AuditFleet(ctx context.Context, r *store.Replicated, cfg AuditConfig) (*Audit, error) {
	if r == nil {
		return nil, fmt.Errorf("repair: nil replicated store")
	}
	n := r.Levels()
	distinct, err := cfg.DistinctTargets(n)
	if err != nil {
		return nil, err
	}
	stats, errs := r.StatAll(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	audit := &Audit{Levels: make([]LevelReport, n)}
	reachable := make([]bool, len(stats))
	for i, e := range errs {
		if e == nil {
			reachable[i] = true
			audit.Reachable++
		} else {
			audit.Unreachable++
		}
	}
	for lvl := 0; lvl < n; lvl++ {
		lr := LevelReport{
			Level:      lvl,
			Replicas:   r.ReplicasFor(lvl),
			Distinct:   distinct[lvl],
			PerReplica: make([]int, len(stats)),
		}
		lr.WantCopies = lr.Distinct * lr.Replicas
		for i := range stats {
			if !reachable[i] {
				lr.PerReplica[i] = -1
				continue
			}
			for _, lc := range cfg.perLevelFor(stats[i]) {
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
	return audit, nil
}
