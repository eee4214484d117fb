package repair

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Tally is what one heal step — or a round of them — moved. Both
// reports embed it and both sets of fill counters are fed from it, so
// repair and migration account their work the same way.
type Tally struct {
	// Regenerated counts fresh blocks recombined and placed, Copied the
	// survivors placed verbatim (a degenerate sample's fallback), and
	// Copies the fleet-wide copy target those placements aimed at.
	Regenerated int
	Copied      int
	Copies      int
	// BytesCollected is the wire volume of distinct survivors fetched,
	// and BytesPlaced the volume written, counted once per target copy.
	BytesCollected int64
	BytesPlaced    int64
	// SkippedLevels lists deficient levels left unfilled: no reachable
	// survivor carries the level, or its sample was degenerate with
	// nothing left to copy. They need lost-data handling, not repair.
	SkippedLevels []int
	// Truncated reports that the block budget ran out before every
	// deficit was addressed; the next round continues.
	Truncated bool
	// DeletesIssued counts reclaim calls to stale holders, and
	// BlocksReclaimed the copies they removed. Repair has no stale
	// holders, so both stay 0 there.
	DeletesIssued   int
	BlocksReclaimed int
}

// Add accumulates o into t.
func (t *Tally) Add(o Tally) {
	t.Regenerated += o.Regenerated
	t.Copied += o.Copied
	t.Copies += o.Copies
	t.BytesCollected += o.BytesCollected
	t.BytesPlaced += o.BytesPlaced
	t.SkippedLevels = append(t.SkippedLevels, o.SkippedLevels...)
	t.Truncated = t.Truncated || o.Truncated
	t.DeletesIssued += o.DeletesIssued
	t.BlocksReclaimed += o.BlocksReclaimed
}

// Counters is the round and fill series both healers register, under
// their prefix ("repair", "mover"; catalog: DESIGN.md §10). Names
// resolve once; a nil registry yields nil fields whose recording calls
// are no-ops.
type Counters struct {
	rounds, roundErrors *metrics.Counter
	roundNs             *metrics.Histogram

	regenerated, copies, bytesCollected, bytesPlaced, levelsSkipped *metrics.Counter
}

// NewCounters registers the <prefix>_* round and fill series on reg.
func NewCounters(reg *metrics.Registry, prefix string) Counters {
	return Counters{
		rounds:         reg.Counter(prefix + "_rounds_total"),
		roundErrors:    reg.Counter(prefix + "_round_errors_total"),
		roundNs:        reg.Histogram(prefix + "_round_ns"),
		regenerated:    reg.Counter(prefix + "_blocks_regenerated_total"),
		copies:         reg.Counter(prefix + "_copies_placed_total"),
		bytesCollected: reg.Counter(prefix + "_bytes_collected_total"),
		bytesPlaced:    reg.Counter(prefix + "_bytes_placed_total"),
		levelsSkipped:  reg.Counter(prefix + "_levels_skipped_total"),
	}
}

// Round records one round begun at t0: its duration and outcome, and
// what its fills moved — work done before an error counts the same as
// a clean round's.
func (c Counters) Round(t0 time.Time, t Tally, err error) {
	c.roundNs.ObserveSince(t0)
	c.rounds.Inc()
	if err != nil {
		c.roundErrors.Inc()
	}
	c.regenerated.Add(uint64(t.Regenerated))
	c.copies.Add(uint64(t.Copies))
	c.bytesCollected.Add(uint64(t.BytesCollected))
	c.bytesPlaced.Add(uint64(t.BytesPlaced))
	c.levelsSkipped.Add(uint64(len(t.SkippedLevels)))
}

// Heal is the one per-object heal step under repair and migration:
// from the owners' audit, gather survivors, fill the deficient levels
// by recombination — never decoding — and, when stale holders are
// given, verify the owners and release the stale copies. Budget
// and Charge are what the two callers differ in besides the stale
// holders, passed as values: the zero value of each is its absence,
// and the step never asks who is calling.
type Heal struct {
	// Scheme and Levels describe the code the fleet holds; Targets are
	// the per-level distinct-block targets the owners are audited
	// against (dist.Apportion derives them from a priority distribution).
	Scheme  core.Scheme
	Levels  *core.Levels
	Targets []int
	// Budget caps the blocks one step places; 0 means no cap.
	Budget int
	// Charge, when non-nil, is called with the wire bytes each stale
	// holder answered, and with each placement's before it is made —
	// the mover's rate limit.
	Charge func(ctx context.Context, n int) error
}

// Validate checks the code and targets against a store replicating
// storeLevels levels: the one construction check of the repair daemon
// and the migration mover.
func (h *Heal) Validate(storeLevels int) error {
	if !h.Scheme.Valid() {
		return fmt.Errorf("repair: invalid scheme %v", h.Scheme)
	}
	if h.Levels == nil {
		return fmt.Errorf("repair: nil levels")
	}
	if h.Levels.Count() != storeLevels {
		return fmt.Errorf("repair: code has %d levels, store replicates %d", h.Levels.Count(), storeLevels)
	}
	return checkTargets(h.Targets, storeLevels)
}

// Object heals obj on shard, its current owners, drawing from rng, and
// adds what it moved to t, which stays meaningful when Object returns
// an error half-way. audit is the owners' inventory scan the caller
// already holds — AuditFleet, or AuditStats over the same shard's
// replicas in order — so a healed object costs no second scan.
//
// Without stale holders the step is one repair round: when a level is
// deficient, collect the owners' survivors and fill; the only errors
// are no owner answering and a failed placement. With stale holders —
// nodes holding obj without owning it — it is one migration: every
// owner must answer, survivors are gathered from the owners and the
// stale holders, the owners are re-audited, and only when every level
// meets its copy target are the stale copies deleted. Every step is
// idempotent, so a failed call leaves the stale holdings for the next.
func (h *Heal) Object(ctx context.Context, shard *store.Replicated, obj core.ObjectID, audit *Audit, stale []*store.Client, rng *rand.Rand, t *Tally) error {
	if len(stale) > 0 && audit.Unreachable > 0 {
		return fmt.Errorf("%d owners unreachable, cannot verify a release", audit.Unreachable)
	}
	// waived marks deficient levels with no survivor anywhere: their
	// dimensions are already lost, so releasing the stale copies loses
	// nothing more and the verification lets them through.
	waived := make(map[int]bool)
	if deficient := audit.Deficient(); len(deficient) > 0 {
		if audit.Reachable == 0 {
			return fmt.Errorf("%w: all %d replicas unreachable", store.ErrStoreUnavailable, audit.Unreachable)
		}
		// One gather covers every deficient level: survivors of level k
		// also serve as sample padding for deeper PLC levels.
		survivors, lacking, err := h.gather(ctx, shard, obj, stale, deficient[len(deficient)-1].Level, t)
		if err != nil {
			return err
		}
		for _, lr := range deficient {
			waived[lr.Level] = true
		}
		for _, b := range survivors {
			delete(waived, b.Level)
		}
		if err := h.fill(ctx, shard, rng, survivors, lacking, deficient, t); err != nil {
			return err
		}
	}
	if len(stale) == 0 {
		return nil
	}
	return h.release(ctx, shard, AuditConfig{Object: obj, Targets: h.Targets}, stale, waived, t)
}

// gather collects obj's survivors up to maxLevel from the owners —
// the collect already drops their duplicate copies — then from each
// stale holder, keeping what was not gathered before, and returns them
// in SortBlocks order, so a fixed seed samples identically, together
// with, in the same order, those no owner holds: the verbatim-copy
// fallback for a level too degenerate to recombine.
func (h *Heal) gather(ctx context.Context, shard *store.Replicated, obj core.ObjectID, stale []*store.Client, maxLevel int, t *Tally) (survivors, lacking []*core.CodedBlock, err error) {
	if survivors, err = shard.CollectAll(ctx, obj, maxLevel); err != nil {
		return nil, nil, err
	}
	seen := make(map[string]bool)
	for _, b := range survivors {
		t.BytesCollected += int64(b.WireSize())
		if len(stale) > 0 {
			seen[blockKey(b)] = true
		}
	}
	for _, cl := range stale {
		got, err := cl.GetObject(ctx, obj, maxLevel)
		if err != nil {
			return nil, nil, fmt.Errorf("collect from stale holder %s: %w", cl.Addr(), err)
		}
		moved := 0
		for _, b := range got {
			if k := blockKey(b); !seen[k] {
				seen[k] = true
				lacking = append(lacking, b)
				moved += b.WireSize()
			}
		}
		t.BytesCollected += int64(moved)
		if h.Charge != nil {
			if err := h.Charge(ctx, moved); err != nil {
				return nil, nil, err
			}
		}
	}
	// Distinct blocks sort in one strict order, so sorting the subset
	// orders it as the whole.
	survivors = append(survivors, lacking...)
	SortBlocks(survivors)
	SortBlocks(lacking)
	return survivors, lacking, nil
}

// fill recombines fresh blocks from the sorted survivors for each
// deficient level, most critical first, then places them all with one
// call, each preferring its level's under-provisioned owners — one
// multi-block put per owner — and tallies the blocks that landed. Per
// deficient level, per block, rng draws Perm(anchors), Perm(padding)
// when padding is taken, then RecombineRanked's — so a seeded caller
// replays bit-identically.
func (h *Heal) fill(ctx context.Context, shard *store.Replicated, rng *rand.Rand, survivors, copyable []*core.CodedBlock, deficient []LevelReport, t *Tally) error {
	byLevel := make(map[int][]*core.CodedBlock)
	for _, b := range survivors {
		byLevel[b.Level] = append(byLevel[b.Level], b)
	}
	verbatimByLevel := make(map[int][]*core.CodedBlock)
	for _, b := range copyable {
		verbatimByLevel[b.Level] = append(verbatimByLevel[b.Level], b)
	}
	budget := h.Budget
	if budget <= 0 {
		budget = math.MaxInt
	}
	// The batch: each block with its preference order, its level's
	// replication factor and whether it is a verbatim copy.
	var (
		batch    []*core.CodedBlock
		prefer   [][]int
		replicas []int
		raws     []bool
	)
	for _, lr := range deficient {
		if budget <= 0 {
			t.Truncated = true
			break
		}
		anchors := byLevel[lr.Level]
		if len(anchors) == 0 {
			// Without a surviving block of this level, its dimensions
			// are gone from the store; recombination cannot conjure
			// them back and decoding is exactly what we refuse to do.
			t.SkippedLevels = append(t.SkippedLevels, lr.Level)
			continue
		}
		var padding []*core.CodedBlock
		if h.Scheme != core.SLC {
			for lvl := 0; lvl < lr.Level; lvl++ {
				padding = append(padding, byLevel[lvl]...)
			}
		}
		verbatim := verbatimByLevel[lr.Level]
		pref := preferOrder(lr.PerReplica)
		need := (lr.Deficit + lr.Replicas - 1) / lr.Replicas
		for ; need > 0 && budget > 0; need-- {
			nb, _, err := core.RecombineRanked(rng, h.Scheme, h.Levels, sample(rng, anchors, padding))
			raw := errors.Is(err, core.ErrDegenerateInputs)
			if raw {
				// The survivors span a minimal space — recombining
				// cannot produce anything new, so copy them verbatim.
				if len(verbatim) == 0 {
					t.SkippedLevels = append(t.SkippedLevels, lr.Level)
					break
				}
				nb, verbatim = verbatim[0], verbatim[1:]
			} else if err != nil {
				return fmt.Errorf("recombine level %d: %w", lr.Level, err)
			}
			if h.Charge != nil {
				if err := h.Charge(ctx, nb.WireSize()*lr.Replicas); err != nil {
					return err
				}
			}
			batch = append(batch, nb)
			prefer = append(prefer, pref)
			replicas = append(replicas, lr.Replicas)
			raws = append(raws, raw)
			budget--
		}
		if need > 0 && budget <= 0 {
			t.Truncated = true
		}
	}
	landed, err := shard.PutAllPreferring(ctx, batch, prefer)
	for i, ok := range landed {
		if !ok {
			continue
		}
		if raws[i] {
			t.Copied++
		} else {
			t.Regenerated++
		}
		t.Copies += replicas[i]
		t.BytesPlaced += int64(batch[i].WireSize() * replicas[i])
	}
	if err != nil {
		return fmt.Errorf("place: %w", err)
	}
	return nil
}

// release verifies before it reclaims: the owners are re-audited, and
// only when every one answers and every level meets its copy target
// (waived levels excepted) is obj deleted from each stale holder.
// Delete is idempotent, so a retry after a partial release re-deletes
// nothing.
func (h *Heal) release(ctx context.Context, shard *store.Replicated, acfg AuditConfig, stale []*store.Client, waived map[int]bool, t *Tally) error {
	check, err := AuditFleet(ctx, shard, acfg)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if check.Unreachable > 0 {
		return fmt.Errorf("verify: %d owners unreachable", check.Unreachable)
	}
	for _, lr := range check.Deficient() {
		if !waived[lr.Level] {
			return fmt.Errorf("verify: level %d holds %d/%d copies", lr.Level, lr.HaveCopies, lr.WantCopies)
		}
	}
	for _, cl := range stale {
		n, err := cl.Delete(ctx, acfg.Object)
		if err != nil {
			return fmt.Errorf("reclaim from %s: %w", cl.Addr(), err)
		}
		t.DeletesIssued++
		t.BlocksReclaimed += n
	}
	return nil
}

// sampleSize is how many survivors feed each recombination. Small
// samples keep the bytes collected near the regenerated volume; larger
// ones raise the entropy of each regenerated block.
const sampleSize = 8

// sample draws up to sampleSize blocks: at least one anchor of the
// target level (so the output keeps that level), padded with
// lower-level survivors when the scheme allows mixing.
func sample(rng *rand.Rand, anchors, padding []*core.CodedBlock) []*core.CodedBlock {
	take := min(sampleSize, len(anchors))
	out := make([]*core.CodedBlock, 0, sampleSize)
	for _, i := range rng.Perm(len(anchors))[:take] {
		out = append(out, anchors[i])
	}
	if pad := min(sampleSize-len(out), len(padding)); pad > 0 {
		for _, i := range rng.Perm(len(padding))[:pad] {
			out = append(out, padding[i])
		}
	}
	return out
}

// preferOrder ranks replica indices for placement: fewest copies of the
// level first, unreachable replicas last (they may have healed since
// the audit, so they stay eligible as fallback).
func preferOrder(perReplica []int) []int {
	order := make([]int, len(perReplica))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := perReplica[order[a]], perReplica[order[b]]
		if (ca < 0) != (cb < 0) {
			return cb < 0
		}
		return ca < cb
	})
	return order
}

// SortBlocks orders survivors by (level, dense coefficients, payload)
// so a fixed seed samples identically across runs. Sparse blocks (nil
// Coeff) compare by their dense vectors, not their representation, so
// the order does not depend on which wire version a block arrived in.
func SortBlocks(blocks []*core.CodedBlock) {
	type keyed struct {
		coeff []byte
		b     *core.CodedBlock
	}
	ks := make([]keyed, len(blocks))
	for i, b := range blocks {
		ks[i] = keyed{b.DenseCoeff(), b}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		x, y := ks[i], ks[j]
		if x.b.Level != y.b.Level {
			return x.b.Level < y.b.Level
		}
		if c := bytes.Compare(x.coeff, y.coeff); c != 0 {
			return c < 0
		}
		return bytes.Compare(x.b.Payload, y.b.Payload) < 0
	})
	for i := range ks {
		blocks[i] = ks[i].b
	}
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
