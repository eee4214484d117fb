package store

import (
	"fmt"
	"net"

	"repro/internal/metrics"
)

// This file is the store's metrics seam: each layer resolves its metric
// names once at construction into a plain struct of pointers, so the hot
// paths do a nil-check plus an atomic add and never touch the registry.
// All constructors accept a nil registry, in which case every field is
// nil and every recording call is a no-op — library users who configure
// no Metrics pay nothing. The name catalog lives in DESIGN.md §10.

// serverMetrics instruments one Server.
type serverMetrics struct {
	activeConns   *metrics.Gauge
	connsAccepted *metrics.Counter
	connsRejected *metrics.Counter

	bytesIn     *metrics.Counter
	bytesOut    *metrics.Counter
	crcFailures *metrics.Counter

	puts         *metrics.Counter
	putsStored   *metrics.Counter
	putsDeduped  *metrics.Counter
	putsRejected *metrics.Counter
	putsFull     *metrics.Counter
	putsBad      *metrics.Counter
	gets         *metrics.Counter
	stats        *metrics.Counter
	segments     *metrics.Counter
	pings        *metrics.Counter
	shutdowns    *metrics.Counter
	unknown      *metrics.Counter
	requestNs    *metrics.Histogram

	deletes        *metrics.Counter
	deletesRemoved *metrics.Counter

	blocks     *metrics.Gauge
	blockBytes *metrics.Gauge
}

func newServerMetrics(r *metrics.Registry) serverMetrics {
	return serverMetrics{
		activeConns:    r.Gauge("store_server_active_conns"),
		connsAccepted:  r.Counter("store_server_conns_accepted_total"),
		connsRejected:  r.Counter("store_server_conns_rejected_total"),
		bytesIn:        r.Counter("store_server_frame_bytes_in_total"),
		bytesOut:       r.Counter("store_server_frame_bytes_out_total"),
		crcFailures:    r.Counter("store_server_crc_failures_total"),
		puts:           r.Counter(`store_server_requests_total{op="put"}`),
		gets:           r.Counter(`store_server_requests_total{op="get"}`),
		stats:          r.Counter(`store_server_requests_total{op="stat"}`),
		segments:       r.Counter(`store_server_requests_total{op="segments"}`),
		pings:          r.Counter(`store_server_requests_total{op="ping"}`),
		shutdowns:      r.Counter(`store_server_requests_total{op="shutdown"}`),
		unknown:        r.Counter(`store_server_requests_total{op="unknown"}`),
		deletes:        r.Counter(`store_server_requests_total{op="delete"}`),
		deletesRemoved: r.Counter("store_server_deletes_removed_total"),
		putsStored:     r.Counter("store_server_puts_stored_total"),
		putsDeduped:    r.Counter("store_server_puts_deduped_total"),
		putsRejected:   r.Counter("store_server_puts_rejected_total"),
		putsFull:       r.Counter("store_server_puts_full_total"),
		putsBad:        r.Counter("store_server_puts_bad_total"),
		requestNs:      r.Histogram("store_server_request_ns"),
		blocks:         r.Gauge("store_server_blocks"),
		blockBytes:     r.Gauge("store_server_block_bytes"),
	}
}

// clientMetrics instruments one Client. Clients sharing a registry share
// series, which aggregates a fleet's client traffic into one view.
type clientMetrics struct {
	attempts      *metrics.Counter
	retries       *metrics.Counter
	backoffSleeps *metrics.Counter
	backoffNs     *metrics.Histogram
	dials         *metrics.Counter
	dialErrors    *metrics.Counter
	poolHits      *metrics.Counter
	poolMisses    *metrics.Counter
	poisoned      *metrics.Counter
	connsStale    *metrics.Counter
	opOK          *metrics.Counter
	opErrors      *metrics.Counter
	opNs          *metrics.Histogram
	bytesIn       *metrics.Counter
	bytesOut      *metrics.Counter
}

func newClientMetrics(r *metrics.Registry) clientMetrics {
	return clientMetrics{
		attempts:      r.Counter("store_client_attempts_total"),
		retries:       r.Counter("store_client_retries_total"),
		backoffSleeps: r.Counter("store_client_backoff_sleeps_total"),
		backoffNs:     r.Histogram("store_client_backoff_ns"),
		dials:         r.Counter("store_client_dials_total"),
		dialErrors:    r.Counter("store_client_dial_errors_total"),
		poolHits:      r.Counter("store_client_pool_hits_total"),
		poolMisses:    r.Counter("store_client_pool_misses_total"),
		poisoned:      r.Counter("store_client_conns_poisoned_total"),
		connsStale:    r.Counter("store_client_conns_stale_total"),
		opOK:          r.Counter("store_client_ops_ok_total"),
		opErrors:      r.Counter("store_client_op_errors_total"),
		opNs:          r.Histogram("store_client_op_ns"),
		bytesIn:       r.Counter("store_client_frame_bytes_in_total"),
		bytesOut:      r.Counter("store_client_frame_bytes_out_total"),
	}
}

// replicaMetrics is one replica's outcome counters inside a Replicated
// store, labeled by the replica's address.
type replicaMetrics struct {
	putOK, putErr   *metrics.Counter
	getOK, getErr   *metrics.Counter
	statOK, statErr *metrics.Counter
}

// replicatedMetrics instruments one Replicated store.
type replicatedMetrics struct {
	puts          *metrics.Counter
	putErrors     *metrics.Counter
	collects      *metrics.Counter
	collectErrors *metrics.Counter
	collectBlocks *metrics.Counter
	collectDups   *metrics.Counter
	// collectOwners counts the owners each collect asked, and
	// collectWidened the bounded collects that asked past their first wave.
	collectOwners  *metrics.Counter
	collectWidened *metrics.Counter
	perReplica     []replicaMetrics
}

// newReplicatedMetrics labels per-replica series {node="addr"} by the
// replicas' addresses, so a node's series stay the same across the
// placement shards it serves and across membership churn.
func newReplicatedMetrics(r *metrics.Registry, addrs []string) replicatedMetrics {
	m := replicatedMetrics{
		puts:           r.Counter("store_replicated_puts_total"),
		putErrors:      r.Counter("store_replicated_put_errors_total"),
		collects:       r.Counter("store_replicated_collects_total"),
		collectErrors:  r.Counter("store_replicated_collect_errors_total"),
		collectBlocks:  r.Counter("store_replicated_collect_blocks_total"),
		collectDups:    r.Counter("store_replicated_collect_dup_blocks_total"),
		collectOwners:  r.Counter("store_replicated_collect_owners_asked_total"),
		collectWidened: r.Counter("store_replicated_collect_widened_total"),
		perReplica:     make([]replicaMetrics, len(addrs)),
	}
	for i, addr := range addrs {
		l := fmt.Sprintf(`{node=%q}`, addr)
		m.perReplica[i] = replicaMetrics{
			putOK:   r.Counter("store_replica_put_ok_total" + l),
			putErr:  r.Counter("store_replica_put_errors_total" + l),
			getOK:   r.Counter("store_replica_get_ok_total" + l),
			getErr:  r.Counter("store_replica_get_errors_total" + l),
			statOK:  r.Counter("store_replica_stat_ok_total" + l),
			statErr: r.Counter("store_replica_stat_errors_total" + l),
		}
	}
	return m
}

// placedMetrics instruments the placement front end. Per-shard outcome
// series come from each shard's replicatedMetrics with node labels.
type placedMetrics struct {
	puts             *metrics.Counter
	collects         *metrics.Counter
	membershipEvents *metrics.Counter
	nodes            *metrics.Gauge
}

func newPlacedMetrics(r *metrics.Registry) placedMetrics {
	return placedMetrics{
		puts:             r.Counter("store_placed_puts_total"),
		collects:         r.Counter("store_placed_collects_total"),
		membershipEvents: r.Counter("store_placed_membership_events_total"),
		nodes:            r.Gauge("store_placed_nodes"),
	}
}

// outcome picks the ok or err counter; a nil pick is still a no-op.
func (rm *replicaMetrics) put(err error)  { pick(err, rm.putOK, rm.putErr).Inc() }
func (rm *replicaMetrics) get(err error)  { pick(err, rm.getOK, rm.getErr).Inc() }
func (rm *replicaMetrics) stat(err error) { pick(err, rm.statOK, rm.statErr).Inc() }

func pick(err error, ok, bad *metrics.Counter) *metrics.Counter {
	if err != nil {
		return bad
	}
	return ok
}

// meteredConn counts frame bytes through a connection. Deadline and
// close calls pass through the embedded Conn, so callers keep full
// control of the underlying socket.
type meteredConn struct {
	net.Conn
	in, out *metrics.Counter
}

// meterConn wraps c with byte counters, or returns c unchanged when both
// counters are nil (the uninstrumented case pays zero indirection).
func meterConn(c net.Conn, in, out *metrics.Counter) net.Conn {
	if in == nil && out == nil {
		return c
	}
	return &meteredConn{Conn: c, in: in, out: out}
}

func (m *meteredConn) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	if n > 0 {
		m.in.Add(uint64(n))
	}
	return n, err
}

func (m *meteredConn) Write(p []byte) (int, error) {
	n, err := m.Conn.Write(p)
	if n > 0 {
		m.out.Add(uint64(n))
	}
	return n, err
}
