package gfmat

import (
	"runtime"
	"sync"

	"repro/internal/gf256"
)

// Parallel payload folds. The coefficient-side reduction is inherently
// sequential — each fold depends on the previous one's result — but every
// payload fold it implies is elementwise: byte i of the output depends
// only on byte i of the inputs. The decoder therefore decides its folds on
// the coefficients first and runs them on the payloads afterwards, in two
// jobs: fold, an arrival's forward folds or an on-demand solve, which
// writes one destination row; and solveStripe, a whole prefix advance,
// which writes every row of the advance in turn. For payloads of at least
// payloadStripeMin bytes either job is striped across GOMAXPROCS
// goroutines, one fan-out per job: each goroutine runs the complete job
// restricted to its own byte range, so stripes never read or write each
// other's memory and the result is bit-identical to the sequential job on
// any machine. Below the threshold the fan-out costs more than it saves,
// and the job stays on the caller's goroutine.

// payloadStripeMin is the payload size below which striping is not worth
// the goroutine fan-out; smaller payloads fold sequentially.
const payloadStripeMin = 16 << 10

// payloadStripeAlign keeps stripe boundaries on 64-byte lines so the SIMD
// bulk of AddMulSlice stays aligned and workers don't false-share cache
// lines.
const payloadStripeAlign = 64

// stripeWorkers is how many goroutines fold a payload of plen bytes: one
// below payloadStripeMin, GOMAXPROCS from there on.
func stripeWorkers(plen int) int {
	if plen < payloadStripeMin {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// fold applies the recorded payload folds to one destination row:
// dst = scale · (start + Σ v · rows[row].payload over d.ops), where start
// is src, or dst's own contents when src is nil.
func (d *Decoder) fold(dst, src []byte, scale byte) {
	d.folds += len(d.ops)
	if w := stripeWorkers(d.payloadLen); w > 1 {
		d.fanOut(w, func(lo, hi int) { d.foldStripe(dst, src, scale, lo, hi) })
		return
	}
	d.foldStripe(dst, src, scale, 0, d.payloadLen)
}

// fanOut splits the payload bytes into one 64-byte-aligned stripe per
// worker and runs job on each stripe on its own goroutine.
func (d *Decoder) fanOut(workers int, job func(lo, hi int)) {
	plen := d.payloadLen
	stripe := (plen + workers - 1) / workers
	stripe = (stripe + payloadStripeAlign - 1) &^ (payloadStripeAlign - 1)
	var wg sync.WaitGroup
	for lo := 0; lo < plen; lo += stripe {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			job(lo, hi)
		}(lo, min(lo+stripe, plen))
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
