package gfmat

import (
	"runtime"
	"sync"

	"repro/internal/gf256"
)

// Parallel payload folds. The coefficient-side reduction is inherently
// sequential — each fold depends on the previous one's result — but every
// payload fold it implies is elementwise: byte i of the output depends
// only on byte i of the inputs. The decoder therefore records the folds
// (d.ops) while reducing coefficients and applies them afterwards, and
// both payload jobs it has — an incoming row's forward folds and a row's
// solve — write a single destination row. For large payloads that one
// fold is striped across a worker pool: each worker runs the complete
// chain restricted to its own byte range, so stripes never read or write
// each other's memory and the result is bit-identical to the sequential
// fold for any worker count. This mirrors the payload striping of
// core.ParallelEncoder one layer down.

// payloadStripeMin is the payload size below which striping is not worth
// the goroutine fan-out; smaller payloads fold sequentially.
const payloadStripeMin = 16 << 10

// payloadStripeAlign keeps stripe boundaries on 64-byte lines so the SIMD
// bulk of AddMulSlice stays aligned and workers don't false-share cache
// lines.
const payloadStripeAlign = 64

// SetPayloadWorkers configures the payload-striping pool: payload folds
// are striped across up to n goroutines when the payload length is at
// least payloadStripeMin bytes. n <= 0 selects GOMAXPROCS; n == 1 restores
// the sequential fold. Decoded output is bit-identical for any setting.
// Not safe to call concurrently with Add.
func (d *Decoder) SetPayloadWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	d.workers = n
}

// PayloadWorkers returns the configured payload-striping pool size
// (0 = never configured, sequential).
func (d *Decoder) PayloadWorkers() int { return d.workers }

// fold applies the recorded payload folds to one destination row:
// dst = scale · (start + Σ v · rows[row].payload over d.ops), where start
// is src, or dst's own contents when src is nil.
func (d *Decoder) fold(dst, src []byte, scale byte) {
	plen := d.payloadLen
	if d.workers <= 1 || plen < payloadStripeMin {
		d.foldStripe(dst, src, scale, 0, plen)
		return
	}
	stripe := (plen + d.workers - 1) / d.workers
	stripe = (stripe + payloadStripeAlign - 1) &^ (payloadStripeAlign - 1)
	var wg sync.WaitGroup
	for lo := 0; lo < plen; lo += stripe {
		hi := min(lo+stripe, plen)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			d.foldStripe(dst, src, scale, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// foldStripe is fold restricted to byte range [lo, hi).
func (d *Decoder) foldStripe(dst, src []byte, scale byte, lo, hi int) {
	if src != nil {
		copy(dst[lo:hi], src[lo:hi])
	}
	for _, op := range d.ops {
		gf256.AddMulSlice(dst[lo:hi], d.rows[op.row].payload[lo:hi], op.v)
	}
	if scale != 1 {
		gf256.ScaleInPlace(dst[lo:hi], scale)
	}
}
