// Package collect implements the data-collecting side of the system: a
// sink pulls coded blocks from (surviving) caches and decodes
// progressively, stopping as soon as the partially decoded data fulfill
// the application requirement (Sec. 3.2) — or when the caches are
// exhausted. Run is the one such loop: the simulator, the Monte-Carlo
// decoding curve, the file and store CLIs and the load harness's
// spot-check differ only in the Source they hand it.
package collect

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
)

// Decoder is the partial decoder a collection feeds; core.Decoder and
// core.ChunkedDecoder both satisfy it. One that also counts decoded
// priority levels (core.Decoder) gets them reported, checkpointed and
// targeted.
type Decoder interface {
	Add(*core.CodedBlock) (bool, error)
	Complete() bool
	DecodedBlocks() int
}

// Source yields the blocks a collection pulls, one per call, and io.EOF
// once it is exhausted. Any other error skips that draw as a reject.
type Source func() (*core.CodedBlock, error)

// Slice yields blocks in order.
func Slice(blocks []*core.CodedBlock) Source {
	return func() (*core.CodedBlock, error) {
		if len(blocks) == 0 {
			return nil, io.EOF
		}
		b := blocks[0]
		blocks = blocks[1:]
		return b, nil
	}
}

// Shuffle yields blocks in the order of one rng.Perm draw, taken now: the
// sink retrieving from the caches at random.
func Shuffle(rng *rand.Rand, blocks []*core.CodedBlock) Source {
	shuffled := make([]*core.CodedBlock, len(blocks))
	for i, j := range rng.Perm(len(blocks)) {
		shuffled[i] = blocks[j]
	}
	return Slice(shuffled)
}

// Options controls a collection run.
type Options struct {
	// Context, when non-nil, makes a long collection cancelable: Run
	// checks it between draws and returns its error once it is done.
	Context context.Context
	// TargetLevels stops collection once this many priority levels have
	// decoded; 0 (or more levels than there are) means "decode as much as
	// the source allows".
	TargetLevels int
	// Checkpoints are ascending processed-block counts at which
	// Result.LevelsAt samples the decoded levels: a decoding curve.
	Checkpoints []int
}

// Reject is a draw the run skipped: the source could not produce a
// block, or the decoder refused it.
type Reject struct {
	Draw int // position in source order, from 0
	Err  error
}

// Result summarizes a collection run: Processed is how many blocks the
// decoder accepted (the paper's M), Innovative how many of them raised
// its rank and Rejected the skipped draws in source order; the decoded
// counts and Complete describe the decoder at the end.
type Result struct {
	Processed, Innovative        int
	Rejected                     []Reject
	DecodedLevels, DecodedBlocks int
	Complete                     bool
	// LevelsAt[i] is the decoded level count once Checkpoints[i] blocks
	// were processed, or at the end for a checkpoint the run fell short of.
	LevelsAt []int
}

// Run pulls blocks from src into dec until the target levels have
// decoded, the decode is complete, the source is exhausted or the context
// is done; only the last is an error. A rejected draw is skipped and
// recorded, and the run goes on without it.
func Run(src Source, dec Decoder, opts Options) (Result, error) {
	if src == nil || dec == nil {
		return Result{}, fmt.Errorf("collect: nil source or decoder")
	}
	if opts.TargetLevels < 0 {
		return Result{}, fmt.Errorf("collect: negative target of %d levels", opts.TargetLevels)
	}
	levels := func() int { return 0 }
	if lv, ok := dec.(interface{ DecodedLevels() int }); ok {
		levels = lv.DecodedLevels
	}
	res := Result{LevelsAt: make([]int, len(opts.Checkpoints))}
	cp := 0
	mark := func(upTo int) {
		for ; cp < len(opts.Checkpoints) && opts.Checkpoints[cp] <= upTo; cp++ {
			res.LevelsAt[cp] = levels()
		}
	}
	mark(0)
	for draw := 0; !dec.Complete() && (opts.TargetLevels == 0 || levels() < opts.TargetLevels); draw++ {
		if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		b, err := src()
		if err == io.EOF {
			break
		}
		innovative := false
		if err == nil {
			innovative, err = dec.Add(b)
		}
		if err != nil {
			res.Rejected = append(res.Rejected, Reject{Draw: draw, Err: err})
			continue
		}
		res.Processed++
		if innovative {
			res.Innovative++
		}
		mark(res.Processed)
	}
	mark(math.MaxInt)
	res.DecodedLevels = levels()
	res.DecodedBlocks = dec.DecodedBlocks()
	res.Complete = dec.Complete()
	return res, nil
}
