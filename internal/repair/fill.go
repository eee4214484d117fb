package repair

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/store"
)

// Tally is what one fill — or a round of them — moved. Both reports
// embed it and both sets of fill counters are fed from it, so repair
// and migration account their work the same way.
type Tally struct {
	// Regenerated counts fresh blocks recombined and placed, Copied the
	// survivors placed verbatim (a degenerate sample's fallback), and
	// Copies the fleet-wide copy target those placements aimed at.
	Regenerated int
	Copied      int
	Copies      int
	// BytesCollected is the wire volume of survivors fetched — set by
	// the caller, whose collect it is — and BytesPlaced the volume
	// written, counted once per target copy.
	BytesCollected int64
	BytesPlaced    int64
	// SkippedLevels lists deficient levels left unfilled: no reachable
	// survivor carries the level, or its sample was degenerate with
	// nothing left to copy. They need lost-data handling, not repair.
	SkippedLevels []int
	// Truncated reports that the block budget ran out before every
	// deficit was addressed; the next round continues.
	Truncated bool
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
}

// Fill is the one transfer primitive under repair and migration: from
// an object's survivors it recombines fresh blocks — never decoding —
// for each level an audit found deficient, most critical first, and
// places them preferring the under-provisioned replicas. Budget,
// Copyable and Charge are what the two callers differ in, passed as
// values: the zero value of each is its absence, and Run never asks
// who is calling.
type Fill struct {
	// Shard is where blocks are placed, Scheme and Levels the code it
	// holds, SampleSize how many survivors feed each recombination.
	Shard      *store.Replicated
	Scheme     core.Scheme
	Levels     *core.Levels
	SampleSize int
	// Rng drives sampling and recombination — per deficient level, per
	// block: Perm(anchors), Perm(padding) when padding is taken, then
	// RecombineRanked — so a seeded caller replays bit-identically.
	Rng *rand.Rand
	// Survivors are the object's blocks up to the deepest deficient
	// level, in SortBlocks order; Deficient is the shard's
	// Audit.Deficient().
	Survivors []*core.CodedBlock
	Deficient []LevelReport
	// Budget caps the blocks placed; 0 means no cap.
	Budget int
	// Copyable lists, in SortBlocks order, survivors to place verbatim
	// when a level's sample is degenerate (minimum rank: recombining
	// yields nothing new). With none left, the level is skipped.
	Copyable []*core.CodedBlock
	// Charge, when non-nil, is called with each placement's wire bytes
	// before it is made — the mover's rate limit.
	Charge func(ctx context.Context, n int) error
}

// Run fills the deficient levels and adds what it moved to t, which
// stays meaningful when Run returns an error half-way.
func (f *Fill) Run(ctx context.Context, t *Tally) error {
	byLevel := make(map[int][]*core.CodedBlock)
	for _, b := range f.Survivors {
		byLevel[b.Level] = append(byLevel[b.Level], b)
	}
	copyable := make(map[int][]*core.CodedBlock)
	for _, b := range f.Copyable {
		copyable[b.Level] = append(copyable[b.Level], b)
	}
	budget := f.Budget
	if budget <= 0 {
		budget = math.MaxInt
	}
	for _, lr := range f.Deficient {
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
		if f.Scheme != core.SLC {
			for lvl := 0; lvl < lr.Level; lvl++ {
				padding = append(padding, byLevel[lvl]...)
			}
		}
		verbatim := copyable[lr.Level]
		prefer := preferOrder(lr.PerReplica)
		need := (lr.Deficit + lr.Replicas - 1) / lr.Replicas
		for ; need > 0 && budget > 0; need-- {
			nb, _, err := core.RecombineRanked(f.Rng, f.Scheme, f.Levels, f.sample(anchors, padding))
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
			placed := nb.WireSize() * lr.Replicas
			if f.Charge != nil {
				if err := f.Charge(ctx, placed); err != nil {
					return err
				}
			}
			if err := f.Shard.PutPreferring(ctx, nb, prefer); err != nil {
				return fmt.Errorf("place level-%d block: %w", lr.Level, err)
			}
			budget--
			if raw {
				t.Copied++
			} else {
				t.Regenerated++
			}
			t.Copies += lr.Replicas
			t.BytesPlaced += int64(placed)
		}
		if need > 0 && budget <= 0 {
			t.Truncated = true
		}
	}
	return nil
}

// sample draws up to SampleSize blocks: at least one anchor of the
// target level (so the output keeps that level), padded with
// lower-level survivors when the scheme allows mixing.
func (f *Fill) sample(anchors, padding []*core.CodedBlock) []*core.CodedBlock {
	take := f.SampleSize
	if take > len(anchors) {
		take = len(anchors)
	}
	out := make([]*core.CodedBlock, 0, f.SampleSize)
	for _, i := range f.Rng.Perm(len(anchors))[:take] {
		out = append(out, anchors[i])
	}
	if pad := f.SampleSize - len(out); pad > 0 && len(padding) > 0 {
		if pad > len(padding) {
			pad = len(padding)
		}
		for _, i := range f.Rng.Perm(len(padding))[:pad] {
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
