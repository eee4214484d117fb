package store

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// ServerConfig parameterizes a storage daemon.
type ServerConfig struct {
	// Addr is the TCP listen address; empty means loopback on an
	// ephemeral port (the default for tests and in-process demos).
	Addr string
	// MaxConns bounds concurrently served connections; excess accepts
	// are rejected with an unavailable error frame. Default 64.
	MaxConns int
	// MaxBlocks caps stored blocks (0 = unlimited); once full, puts are
	// rejected with ErrStoreFull so clients fail over to another replica.
	// Only consulted when Blocks is nil (it caps the default MemStore).
	MaxBlocks int
	// Blocks is the storage engine. Nil means a fresh in-memory store
	// capped at MaxBlocks. The server does NOT close an injected engine
	// on Shutdown — whoever opened it (e.g. prlcd wiring a disk store)
	// closes it after the drain, so a restart can reopen the same data.
	Blocks BlockStore
	// Metrics, when non-nil, receives the server's counters, gauges and
	// latency histograms (see DESIGN.md §10). Nil disables instrumentation
	// at zero cost.
	Metrics *metrics.Registry
}

func (c *ServerConfig) fillDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
}

// The server's fixed connection deadlines; request frames are bounded by
// DefaultMaxFrame.
const (
	// idleTimeout is how long a connection may sit between requests
	// before the server closes it.
	idleTimeout = 30 * time.Second
	// writeTimeout bounds each response write.
	writeTimeout = 10 * time.Second
)

// levelTally is the per-level slice of a server's inventory.
type levelTally struct {
	count int
	bytes int64 // wire bytes, coefficient vectors included
}

// Server is a TCP block-store daemon: it accepts frames (see frame.go),
// hands coded blocks to its BlockStore engine (in-memory by default,
// disk-backed via diskstore), and drains gracefully on Shutdown.
// Identical blocks are deduplicated by the engine, which makes client
// put-retries idempotent: a retry after a lost ack cannot double-store.
type Server struct {
	cfg    ServerConfig
	ln     net.Listener
	met    serverMetrics
	blocks BlockStore

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg        sync.WaitGroup
	draining  chan struct{}
	done      chan struct{}
	drainOnce sync.Once
	doneOnce  sync.Once
}

// NewServer starts a daemon: it binds the configured address and begins
// serving immediately. Callers must eventually Shutdown it.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg.fillDefaults()
	blocks := cfg.Blocks
	if blocks == nil {
		blocks = NewMemStore(cfg.MaxBlocks)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("store: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		met:      newServerMetrics(cfg.Metrics),
		blocks:   blocks,
		conns:    make(map[net.Conn]struct{}),
		draining: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (useful with ephemeral ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Done is closed once the server has fully shut down — either via
// Shutdown or via a shutdown frame from a client.
func (s *Server) Done() <-chan struct{} { return s.done }

// Len returns the number of stored blocks.
func (s *Server) Len() int { return s.blocks.Len() }

// Stats returns an inventory snapshot.
func (s *Server) Stats() Stats { return s.blocks.Stats() }

// Shutdown drains the server: the listener closes, idle connections are
// kicked, in-flight requests finish, and once the context expires any
// stragglers are force-closed. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		close(s.draining)
		s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			// Interrupt blocking reads; handlers mid-response finish
			// their write and then observe the drain.
			c.SetReadDeadline(time.Unix(1, 0))
		}
		s.mu.Unlock()
	})
	waited := make(chan struct{})
	go func() { s.wg.Wait(); close(waited) }()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-waited
		err = ctx.Err()
	}
	s.doneOnce.Do(func() { close(s.done) })
	return err
}

func (s *Server) drainingNow() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: draining
		}
		s.mu.Lock()
		if len(s.conns) >= s.cfg.MaxConns || s.drainingNow() {
			s.mu.Unlock()
			s.met.connsRejected.Inc()
			writeErrFrame(conn, errCodeUnavailable, "server busy or draining")
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.met.connsAccepted.Inc()
		s.met.activeConns.Inc()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(raw net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
		raw.Close()
		s.met.activeConns.Dec()
	}()
	// Deadlines set on the metered wrapper pass through to raw, so the
	// shutdown path (which pokes raw directly) still interrupts reads.
	conn := meterConn(raw, s.met.bytesIn, s.met.bytesOut)
	// One frame buffer per connection, reused across requests: handlers
	// either consume the body before the next read or copy what they
	// keep (the put path stores its own copy).
	var scratch []byte
	for {
		if s.drainingNow() {
			return
		}
		conn.SetReadDeadline(time.Now().Add(idleTimeout))
		var typ byte
		var body []byte
		var err error
		typ, body, scratch, err = readFrameBuf(conn, DefaultMaxFrame, scratch)
		if err != nil {
			if errors.Is(err, ErrCorruptFrame) {
				// The stream is out of sync: report and hang up. The
				// client's retry lands on a fresh connection.
				s.met.crcFailures.Inc()
				conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				writeErrFrame(conn, errCodeCorrupt, err.Error())
			}
			return
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		t0 := time.Now()
		shutdown := false
		switch typ {
		case framePut:
			s.met.puts.Inc()
			err = s.handlePut(conn, body)
		case frameGet:
			s.met.gets.Inc()
			err = s.handleGet(conn, body)
		case frameStat:
			s.met.stats.Inc()
			err = s.handleStat(conn)
		case frameSegments:
			s.met.segments.Inc()
			err = s.handleSegments(conn)
		case frameDelete:
			s.met.deletes.Inc()
			err = s.handleDelete(conn, body)
		case framePing:
			s.met.pings.Inc()
			err = writeFrame(conn, frameOK, nil)
		case frameShutdown:
			s.met.shutdowns.Inc()
			err = writeFrame(conn, frameOK, nil)
			shutdown = true
		default:
			s.met.unknown.Inc()
			writeErrFrame(conn, errCodeBad, fmt.Sprintf("unknown frame type %q", typ))
			return
		}
		s.met.requestNs.ObserveSince(t0)
		if shutdown {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()
			return
		}
		if err != nil {
			return
		}
	}
}

func (s *Server) handlePut(conn net.Conn, body []byte) error {
	var b core.CodedBlock
	if err := b.UnmarshalBinary(body); err != nil {
		s.met.putsBad.Inc()
		writeErrFrame(conn, errCodeBad, fmt.Sprintf("bad block: %v", err))
		return nil
	}
	stored, err := s.blocks.Put(b.Object, b.Level, body)
	switch {
	case errors.Is(err, ErrStoreFull):
		s.met.putsRejected.Inc()
		s.met.putsFull.Inc()
		writeErrFrame(conn, errCodeFull, err.Error())
		return nil
	case err != nil:
		// Engine failure (a disk write that did not land): the block is
		// not durable, so the client must not treat it as stored.
		s.met.putsRejected.Inc()
		writeErrFrame(conn, errCodeUnavailable, err.Error())
		return nil
	case stored:
		s.met.putsStored.Inc()
		s.met.blocks.Set(int64(s.blocks.Len()))
		s.met.blockBytes.Set(s.blocks.Bytes())
	default:
		s.met.putsDeduped.Inc()
	}
	return writeFrame(conn, frameOK, nil)
}

func (s *Server) handleGet(conn net.Conn, body []byte) error {
	obj, maxLevel, err := decodeGetBody(body)
	if err != nil {
		writeErrFrame(conn, errCodeBad, err.Error())
		return nil
	}
	out, err := s.blocks.Get(obj, maxLevel)
	if err != nil {
		writeErrFrame(conn, errCodeUnavailable, err.Error())
		return nil
	}
	if err = writeBlockList(conn, out); errors.Is(err, ErrBadRequest) {
		writeErrFrame(conn, errCodeBad, err.Error())
		return nil
	}
	return err
}

// handleDelete reclaims one object's blocks from the engine — the
// migration mover's release op against an old owner. Idempotent: a
// retried delete of an already-gone object answers 0 removed.
func (s *Server) handleDelete(conn net.Conn, body []byte) error {
	obj, err := decodeDeleteBody(body)
	if err != nil {
		writeErrFrame(conn, errCodeBad, err.Error())
		return nil
	}
	removed, err := s.blocks.Delete(obj)
	switch {
	case errors.Is(err, ErrBadRequest):
		writeErrFrame(conn, errCodeBad, err.Error())
		return nil
	case err != nil:
		writeErrFrame(conn, errCodeUnavailable, err.Error())
		return nil
	}
	if removed > 0 {
		s.met.deletesRemoved.Add(uint64(removed))
		s.met.blocks.Set(int64(s.blocks.Len()))
		s.met.blockBytes.Set(s.blocks.Bytes())
	}
	return writeFrame(conn, frameDeleted, encodeDeleted(removed))
}

// handleSegments answers the segment inspection op. An engine without
// segments (the in-memory store) is a semantic rejection, not an empty
// list: the operator asked a question this daemon cannot answer.
func (s *Server) handleSegments(conn net.Conn) error {
	lister, ok := s.blocks.(SegmentLister)
	if !ok {
		writeErrFrame(conn, errCodeBad, "storage engine has no segments (in-memory store; run with -data-dir)")
		return nil
	}
	body, err := encodeSegmentList(lister.SegmentInfos())
	if err != nil {
		writeErrFrame(conn, errCodeBad, err.Error())
		return nil
	}
	return writeFrame(conn, frameSegList, body)
}

func (s *Server) handleStat(conn net.Conn) error {
	body, err := encodeStats(s.Stats())
	if err != nil {
		writeErrFrame(conn, errCodeBad, err.Error())
		return nil
	}
	return writeFrame(conn, frameStats, body)
}
