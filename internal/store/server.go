package store

import (
	"context"
	"errors"
	"fmt"
	"io"
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
	// Blocks is the storage engine. Nil means a fresh, unbounded
	// in-memory store. The server does NOT close an injected engine
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
		blocks = NewMemStore(0)
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
			writeErrFrame(conn, 0, errCodeUnavailable, "server busy or draining")
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
	// keep (the engine stores its own copy of a put block). The put
	// path's own state is reused the same way.
	var (
		scratch []byte
		batch   putBatch
	)
	for {
		if s.drainingNow() {
			return
		}
		conn.SetReadDeadline(time.Now().Add(idleTimeout))
		var (
			typ  byte
			id   uint32
			body []byte
			err  error
		)
		typ, id, body, scratch, err = readFrameBuf(conn, DefaultMaxFrame, scratch)
		if err != nil {
			if errors.Is(err, ErrCorruptFrame) {
				// The stream is out of sync and the request id is not to be
				// trusted: report on id 0 and hang up. The client's retry
				// lands on a fresh connection.
				s.met.crcFailures.Inc()
				conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				writeErrFrame(conn, 0, errCodeCorrupt, err.Error())
			}
			return
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		t0 := time.Now()
		shutdown := false
		rep := reply{conn, id}
		switch typ {
		case frameMultiPut:
			s.met.puts.Inc()
			err = s.handleMultiPut(rep, body, &batch)
		case frameGet:
			s.met.gets.Inc()
			err = s.handleGet(rep, body)
		case frameStat:
			s.met.stats.Inc()
			err = s.handleStat(rep)
		case frameSegments:
			s.met.segments.Inc()
			err = s.handleSegments(rep)
		case frameDelete:
			s.met.deletes.Inc()
			err = s.handleDelete(rep, body)
		case framePing:
			s.met.pings.Inc()
			err = rep.frame(frameOK, nil)
		case frameShutdown:
			s.met.shutdowns.Inc()
			err = rep.frame(frameOK, nil)
			shutdown = true
		default:
			s.met.unknown.Inc()
			rep.fail(errCodeBad, fmt.Sprintf("unknown frame type %q", typ))
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

// reply answers one request: every frame it writes carries the
// request's id.
type reply struct {
	w  io.Writer
	id uint32
}

func (r reply) frame(typ byte, body []byte) error { return writeFrame(r.w, typ, r.id, body) }

func (r reply) fail(code byte, msg string) { writeErrFrame(r.w, r.id, code, msg) }

// putBatch is one connection's put state, reused from request to
// request: the block list's entries, the batch handed to the engine and
// the answer's body.
type putBatch struct {
	wires [][]byte
	puts  []BatchPut
	acks  []byte
}

// handleMultiPut serves a put: every entry of the block list is
// validated in place (core.CheckWire: no copy of its sections, no seed
// expansion) and handed to the engine, which copies what it keeps — all
// in one engine call when the engine is a BatchPutter — and answered
// with one status per entry, so a rejected block fails alone. Only a
// body that is not a block list fails the whole frame.
func (s *Server) handleMultiPut(rep reply, body []byte, b *putBatch) error {
	wires, err := splitBlockList(b.wires, body)
	if err != nil {
		rep.fail(errCodeBad, fmt.Sprintf("bad block list: %v", err))
		return nil
	}
	acks := appendPutAcks(b.acks[:0], len(wires))
	status := acks[4:] // ackStored for the entries handed to the engine
	puts := b.puts[:0]
	for i, w := range wires {
		obj, level, err := core.CheckWire(w)
		if err != nil {
			s.met.putsBad.Inc()
			status[i] = errCodeBad
			continue
		}
		puts = append(puts, BatchPut{Obj: obj, Level: level, Wire: w})
	}
	if bp, ok := s.blocks.(BatchPutter); ok {
		bp.PutBatch(puts)
	} else {
		for k := range puts {
			puts[k].Stored, puts[k].Err = s.blocks.Put(puts[k].Obj, puts[k].Level, puts[k].Wire)
		}
	}
	k := 0
	for i := range status {
		if status[i] == ackStored {
			status[i] = s.putOutcome(puts[k].Stored, puts[k].Err)
			k++
		}
	}
	b.wires, b.puts, b.acks = wires, puts, acks
	return rep.frame(framePutAcks, acks)
}

// putOutcome counts one engine put's outcome and returns its status:
// ackStored, or the error code the client acts on. An engine failure (a
// disk write that did not land) is unavailable: the block is not
// durable, so the client must not treat it as stored.
func (s *Server) putOutcome(stored bool, err error) byte {
	switch {
	case errors.Is(err, ErrStoreFull):
		s.met.putsRejected.Inc()
		s.met.putsFull.Inc()
		return errCodeFull
	case err != nil:
		s.met.putsRejected.Inc()
		return errCodeUnavailable
	case stored:
		s.met.putsStored.Inc()
		s.met.blocks.Set(int64(s.blocks.Len()))
		s.met.blockBytes.Set(s.blocks.Bytes())
	default:
		s.met.putsDeduped.Inc()
	}
	return ackStored
}

func (s *Server) handleGet(rep reply, body []byte) error {
	obj, maxLevel, err := decodeGetBody(body)
	if err != nil {
		rep.fail(errCodeBad, err.Error())
		return nil
	}
	out, err := s.blocks.Get(obj, maxLevel)
	if err != nil {
		rep.fail(errCodeUnavailable, err.Error())
		return nil
	}
	if err = writeBlockList(rep.w, frameBlocks, rep.id, out); errors.Is(err, ErrBadRequest) {
		rep.fail(errCodeBad, err.Error())
		return nil
	}
	return err
}

// handleDelete reclaims one object's blocks from the engine — the
// migration mover's release op against an old owner. Idempotent: a
// retried delete of an already-gone object answers 0 removed.
func (s *Server) handleDelete(rep reply, body []byte) error {
	obj, err := decodeDeleteBody(body)
	if err != nil {
		rep.fail(errCodeBad, err.Error())
		return nil
	}
	removed, err := s.blocks.Delete(obj)
	switch {
	case errors.Is(err, ErrBadRequest):
		rep.fail(errCodeBad, err.Error())
		return nil
	case err != nil:
		rep.fail(errCodeUnavailable, err.Error())
		return nil
	}
	if removed > 0 {
		s.met.deletesRemoved.Add(uint64(removed))
		s.met.blocks.Set(int64(s.blocks.Len()))
		s.met.blockBytes.Set(s.blocks.Bytes())
	}
	return rep.frame(frameDeleted, encodeDeleted(removed))
}

// handleSegments answers the segment inspection op. An engine without
// segments (the in-memory store) is a semantic rejection, not an empty
// list: the operator asked a question this daemon cannot answer.
func (s *Server) handleSegments(rep reply) error {
	lister, ok := s.blocks.(SegmentLister)
	if !ok {
		rep.fail(errCodeBad, "storage engine has no segments (in-memory store; run with -data-dir)")
		return nil
	}
	body, err := encodeSegmentList(lister.SegmentInfos())
	if err != nil {
		rep.fail(errCodeBad, err.Error())
		return nil
	}
	return rep.frame(frameSegList, body)
}

func (s *Server) handleStat(rep reply) error {
	body, err := encodeStats(s.Stats())
	if err != nil {
		rep.fail(errCodeBad, err.Error())
		return nil
	}
	return rep.frame(frameStats, body)
}
