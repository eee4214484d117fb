package mover

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/repair"
)

// migrateObject re-homes one object: audit the current owners, fill
// their per-level deficits by recombining survivors gathered from the
// stale holders (and whatever the owners already received), verify the
// owners meet the provisioning targets, and only then reclaim the stale
// copies. Every step is idempotent, so a failed attempt retries from
// the audit with nothing lost — stale holders are never deleted before
// verification passes. What the attempt moved accumulates into res, a
// one-object Report: Migrated becomes 1 on release.
func (m *Mover) migrateObject(ctx context.Context, op ObjectPlan, rng *rand.Rand, res *Report) error {
	shard, err := m.placed.Shard(op.Object)
	if err != nil {
		return fmt.Errorf("mover: resolve shard %s: %w", op.Object, err)
	}
	acfg := repair.AuditConfig{Object: op.Object, Targets: m.targets}
	audit, err := repair.AuditFleet(ctx, shard, acfg)
	if err != nil {
		return fmt.Errorf("mover: audit %s: %w", op.Object, err)
	}
	if audit.Unreachable > 0 {
		return fmt.Errorf("mover: %s: %d owners unreachable, cannot verify a release", op.Object, audit.Unreachable)
	}

	// waived marks levels with no survivor anywhere — neither on the
	// owners nor on the stale holders. Their dimensions are already
	// lost; reclaiming the stale copies loses nothing more, so the
	// verification gate lets them through (and reports them).
	waived := make(map[int]bool)

	if deficient := audit.Deficient(); len(deficient) > 0 {
		maxLevel := deficient[len(deficient)-1].Level

		// Gather distinct survivors: the owners contribute anchors already
		// transferred (or already in place) so retries never double-move
		// what arrived, the stale holders carry the data being re-homed.
		// What is collected is tallied, and charged to the rate limit.
		var survivors []*core.CodedBlock
		seen := make(map[string]bool)
		lacked := make(map[*core.CodedBlock]bool) // survivors no owner holds
		add := func(blocks []*core.CodedBlock, fromStale bool) (moved int) {
			for _, b := range blocks {
				if k := blockKey(b); !seen[k] {
					seen[k] = true
					survivors = append(survivors, b)
					lacked[b] = fromStale
					moved += b.WireSize()
				}
			}
			res.BytesCollected += int64(moved)
			return moved
		}
		ownerBlocks, err := shard.CollectObject(ctx, op.Object, maxLevel)
		if err != nil {
			return fmt.Errorf("mover: collect %s from owners: %w", op.Object, err)
		}
		add(ownerBlocks, false)
		for _, addr := range op.Stale {
			cl, err := m.placed.ClientFor(addr)
			if err != nil {
				return fmt.Errorf("mover: %s: %w", op.Object, err)
			}
			got, err := cl.GetObject(ctx, op.Object, maxLevel)
			if err != nil {
				return fmt.Errorf("mover: collect %s from stale holder %s: %w", op.Object, addr, err)
			}
			if err := m.throttleWait(ctx, add(got, true)); err != nil {
				return err
			}
		}
		repair.SortBlocks(survivors) // deterministic sampling under a fixed seed

		// Blocks the owners lack are the raw-copy fallback, so a shard
		// at minimum rank transfers its survivors verbatim instead of
		// spinning on server-side dedup.
		var lacking []*core.CodedBlock
		for _, lr := range deficient {
			waived[lr.Level] = true
		}
		for _, b := range survivors {
			delete(waived, b.Level)
			if lacked[b] {
				lacking = append(lacking, b)
			}
		}
		fill := repair.Fill{
			Shard: shard, Scheme: m.cfg.Scheme, Levels: m.cfg.Levels, SampleSize: m.cfg.SampleSize,
			Rng: rng, Survivors: survivors, Deficient: deficient, Copyable: lacking, Charge: m.throttleWait,
		}
		if err := fill.Run(ctx, &res.Tally); err != nil {
			return fmt.Errorf("mover: %s: %w", op.Object, err)
		}
	}

	// Verify before release: the owners must meet every level's copy
	// target (waived levels excepted) with the whole shard answering.
	check, err := repair.AuditFleet(ctx, shard, acfg)
	if err != nil {
		return fmt.Errorf("mover: verify %s: %w", op.Object, err)
	}
	if check.Unreachable > 0 {
		return fmt.Errorf("mover: verify %s: %d owners unreachable", op.Object, check.Unreachable)
	}
	for _, lr := range check.Deficient() {
		if !waived[lr.Level] {
			return fmt.Errorf("mover: verify %s: level %d holds %d/%d copies",
				op.Object, lr.Level, lr.HaveCopies, lr.WantCopies)
		}
	}

	// Release: the owners hold everything the targets ask for, so the
	// stale copies are redundant. Delete is idempotent — a retry after a
	// partial release just re-deletes nothing.
	for _, addr := range op.Stale {
		cl, err := m.placed.ClientFor(addr)
		if err != nil {
			return fmt.Errorf("mover: %s: %w", op.Object, err)
		}
		n, err := cl.Delete(ctx, op.Object)
		if err != nil {
			return fmt.Errorf("mover: reclaim %s from %s: %w", op.Object, addr, err)
		}
		res.DeletesIssued++
		res.BlocksReclaimed += n
	}
	res.Migrated = 1
	return nil
}

// throttleWait charges n bytes against the rate limit and records the
// stall.
func (m *Mover) throttleWait(ctx context.Context, n int) error {
	slept, err := m.limiter.wait(ctx, n)
	if slept > 0 {
		m.met.throttleWaitNs.Observe(int64(slept))
	}
	return err
}

// blockKey identifies a block by content — level, coefficient vector
// (dense form, so representation does not split identities), payload.
func blockKey(b *core.CodedBlock) string {
	coeff := b.DenseCoeff()
	buf := make([]byte, 0, 3+len(coeff)+len(b.Payload))
	buf = append(buf, byte(b.Level), byte(b.Level>>8))
	buf = append(buf, coeff...)
	buf = append(buf, 0)
	buf = append(buf, b.Payload...)
	return string(buf)
}
