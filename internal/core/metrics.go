package core

import (
	"time"

	"repro/internal/metrics"
)

// This file is the coding layer's metrics seam. Instrumentation is
// strictly opt-in via SetMetrics; an encoder or decoder that never sees a
// registry carries all-nil metric fields and pays a single nil check per
// operation. The name catalog lives in DESIGN.md §10.

type encoderMetrics struct {
	blocks   *metrics.Counter
	bytes    *metrics.Counter
	encodeNs *metrics.Histogram
}

// SetMetrics attaches the encoder to a registry. Pass nil to detach.
// Not safe to call concurrently with Encode.
func (e *Encoder) SetMetrics(r *metrics.Registry) {
	if r == nil {
		e.met = encoderMetrics{}
		return
	}
	e.met = encoderMetrics{
		blocks:   r.Counter("core_encode_blocks_total"),
		bytes:    r.Counter("core_encode_bytes_total"),
		encodeNs: r.Histogram("core_encode_ns"),
	}
}

type decoderMetrics struct {
	blocks     *metrics.Counter
	innovative *metrics.Counter
	rejected   *metrics.Counter
	addNs      *metrics.Histogram

	solvedRows    *metrics.Gauge
	levelsDecoded *metrics.Gauge
	levelReady    []*metrics.Histogram // indexed by level

	start      time.Time // when SetMetrics attached; level-ready times are relative to it
	readyLevel int       // levels [0, readyLevel) already reported ready
	sample     uint64    // Add counter driving 1-in-addSampleEvery latency sampling
}

// addSampleEvery is the per-Add latency sampling stride (power of two).
const addSampleEvery = 8

// SetMetrics attaches the decoder to a registry: every Add updates block
// and innovativeness counters, per-Add latency, and solved-row progress,
// and the first time each consecutive level becomes fully decoded the
// elapsed time since attachment lands in core_decode_level_ready_ns — the
// paper's progressive-decoding claim as a measured series. Pass nil to
// detach. Not safe to call concurrently with Add.
func (d *Decoder) SetMetrics(r *metrics.Registry) {
	if r == nil {
		d.met = decoderMetrics{}
		return
	}
	m := decoderMetrics{
		blocks:        r.Counter("core_decode_blocks_total"),
		innovative:    r.Counter("core_decode_innovative_total"),
		rejected:      r.Counter("core_decode_rejected_total"),
		addNs:         r.Histogram("core_decode_add_ns"),
		solvedRows:    r.Gauge("core_decode_solved_rows"),
		levelsDecoded: r.Gauge("core_decode_levels_decoded"),
		levelReady:    make([]*metrics.Histogram, d.levels.Count()),
		start:         time.Now(),
	}
	for k := range m.levelReady {
		m.levelReady[k] = r.Histogram(levelReadyName(k))
	}
	d.met = m
}

// levelReadyName builds core_decode_level_ready_ns{level="k"} without
// fmt, since SetMetrics may run in level-count loops inside experiments.
func levelReadyName(k int) string {
	digits := [20]byte{}
	i := len(digits)
	n := k
	if n == 0 {
		i--
		digits[i] = '0'
	}
	for n > 0 {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	return `core_decode_level_ready_ns{level="` + string(digits[i:]) + `"}`
}

// recordAdd updates decode progress after one (instrumented) Add; timed
// marks the sampled Adds that feed the latency histogram.
func (d *Decoder) recordAdd(t0 time.Time, timed bool, innovative bool, err error) {
	if timed {
		d.met.addNs.ObserveSince(t0)
	}
	d.met.blocks.Inc()
	switch {
	case err != nil:
		d.met.rejected.Inc()
	case innovative:
		d.met.innovative.Inc()
	}
	d.met.solvedRows.Set(int64(d.solvedRows()))
	for d.met.readyLevel < len(d.met.levelReady) && d.LevelDecoded(d.met.readyLevel) {
		d.met.levelReady[d.met.readyLevel].Observe(int64(time.Since(d.met.start)))
		d.met.readyLevel++
	}
	d.met.levelsDecoded.Set(int64(d.met.readyLevel))
}
