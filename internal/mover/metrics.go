package mover

import "repro/internal/metrics"

// moverMetrics is the mover's own series — the round, backoff and fill
// series it shares with the repair daemon are registered by repair.Loop
// under the "mover" prefix. Names resolve once at construction, and a
// nil registry yields all-nil fields with every recording call a no-op.
// The name catalog lives in DESIGN.md §15.
type moverMetrics struct {
	kicks           *metrics.Counter
	objectsPlanned  *metrics.Counter
	objectsMigrated *metrics.Counter
	objectsSkipped  *metrics.Counter
	objectErrors    *metrics.Counter
	blocksCopied    *metrics.Counter
	deletesIssued   *metrics.Counter
	blocksReclaimed *metrics.Counter
	throttleWaitNs  *metrics.Histogram
}

func newMoverMetrics(r *metrics.Registry) moverMetrics {
	return moverMetrics{
		kicks:           r.Counter("mover_kicks_total"),
		objectsPlanned:  r.Counter("mover_objects_planned_total"),
		objectsMigrated: r.Counter("mover_objects_migrated_total"),
		objectsSkipped:  r.Counter("mover_objects_skipped_total"),
		objectErrors:    r.Counter("mover_object_errors_total"),
		blocksCopied:    r.Counter("mover_blocks_copied_total"),
		deletesIssued:   r.Counter("mover_deletes_issued_total"),
		blocksReclaimed: r.Counter("mover_blocks_reclaimed_total"),
		throttleWaitNs:  r.Histogram("mover_throttle_wait_ns"),
	}
}
