package diskstore

import (
	"repro/internal/metrics"
	"repro/internal/store"
)

// diskMetrics is the disk engine's metrics seam, following the store
// package's pattern: names resolve once at construction, every field
// is nil (and every recording call a no-op) when the registry is nil.
// The name catalog lives in DESIGN.md §12.
type diskMetrics struct {
	putsDeduped *metrics.Counter
	putWaitNs   *metrics.Histogram

	flushes     *metrics.Counter
	batchBlocks *metrics.Histogram
	batchBytes  *metrics.Histogram
	fsyncs      *metrics.Counter
	fsyncNs     *metrics.Histogram
	writeBytes  *metrics.Counter
	writeErrors *metrics.Counter

	blocks     *metrics.Gauge
	blockBytes *metrics.Gauge
	segments   *metrics.Gauge

	segmentsCreated   *metrics.Counter
	segmentsDeleted   *metrics.Counter
	segmentsCompacted *metrics.Counter
	blocksExpired     *metrics.Counter
	bytesExpired      *metrics.Counter
	deletes           *metrics.Counter
	blocksDeleted     *metrics.Counter

	tornTails       *metrics.Counter
	tornBytes       *metrics.Counter
	recoveredBlocks *metrics.Counter
	recoveryNs      *metrics.Gauge

	cacheHits      *metrics.Counter
	cacheMisses    *metrics.Counter
	cacheEvictions *metrics.Counter
	cacheBytes     *metrics.Gauge
}

func newDiskMetrics(r *metrics.Registry) diskMetrics {
	return diskMetrics{
		putsDeduped:       r.Counter("diskstore_puts_deduped_total"),
		putWaitNs:         r.Histogram("diskstore_put_wait_ns"),
		flushes:           r.Counter("diskstore_flushes_total"),
		batchBlocks:       r.Histogram("diskstore_batch_blocks"),
		batchBytes:        r.Histogram("diskstore_batch_bytes"),
		fsyncs:            r.Counter("diskstore_fsyncs_total"),
		fsyncNs:           r.Histogram("diskstore_fsync_ns"),
		writeBytes:        r.Counter("diskstore_write_bytes_total"),
		writeErrors:       r.Counter("diskstore_write_errors_total"),
		blocks:            r.Gauge("diskstore_blocks"),
		blockBytes:        r.Gauge("diskstore_block_bytes"),
		segments:          r.Gauge("diskstore_segments"),
		segmentsCreated:   r.Counter("diskstore_segments_created_total"),
		segmentsDeleted:   r.Counter("diskstore_segments_deleted_total"),
		segmentsCompacted: r.Counter("diskstore_segments_compacted_total"),
		blocksExpired:     r.Counter("diskstore_blocks_expired_total"),
		bytesExpired:      r.Counter("diskstore_bytes_expired_total"),
		deletes:           r.Counter("diskstore_deletes_total"),
		blocksDeleted:     r.Counter("diskstore_blocks_deleted_total"),
		tornTails:         r.Counter("diskstore_torn_tails_truncated_total"),
		tornBytes:         r.Counter("diskstore_torn_bytes_truncated_total"),
		recoveredBlocks:   r.Counter("diskstore_recovered_blocks_total"),
		recoveryNs:        r.Gauge("diskstore_recovery_ns"),
		cacheHits:         r.Counter("diskstore_cache_hits_total"),
		cacheMisses:       r.Counter("diskstore_cache_misses_total"),
		cacheEvictions:    r.Counter("diskstore_cache_evictions_total"),
		cacheBytes:        r.Gauge("diskstore_cache_bytes"),
	}
}

// setInventory refreshes the three inventory gauges.
func (m *diskMetrics) setInventory(inv *store.Inventory, segments int) {
	m.blocks.Set(int64(inv.Blocks()))
	m.blockBytes.Set(inv.Bytes())
	m.segments.Set(int64(segments))
}
