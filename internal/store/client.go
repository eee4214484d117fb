package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Dialer abstracts connection establishment so tests and experiments can
// interpose a fault-injecting transport (see FaultDialer).
type Dialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// The client's fixed tuning. Frames on both directions are bounded by
// DefaultMaxFrame.
const (
	// maxIdleConns bounds the connection pool kept per server. A
	// level-bounded collect asks one or two owners, not all of them, so
	// the gets one server sees come in bursts; with two idle connections
	// those bursts overflowed the pool and redialed (the benchmark's
	// mixed-steady workload: 4 dials per 1,000 ops, against 0.3 with four).
	maxIdleConns = 4
	// retryJitter is the randomized fraction of each backoff delay.
	retryJitter = 0.5
	// dialTimeout bounds each dial attempt.
	dialTimeout = 2 * time.Second
)

// RetryPolicy tunes the client's exponential backoff with jitter.
// Attempt i (from 1) sleeps base*2^(i-1) capped at MaxDelay, then scaled
// by a random factor in [1-retryJitter, 1] so synchronized clients
// desynchronize.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation. Default 4.
	MaxAttempts int
	// BaseDelay is the first backoff. Default 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Default 500ms.
	MaxDelay time.Duration
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
}

// ClientConfig parameterizes a store client.
type ClientConfig struct {
	// Addr is the server address (required).
	Addr string
	// Dialer defaults to a plain net.Dialer.
	Dialer Dialer
	// OpTimeout bounds each request/response attempt. Default 5s.
	OpTimeout time.Duration
	// Retry tunes per-operation retries.
	Retry RetryPolicy
	// Seed seeds the jitter generator (0 means 1) so experiments stay
	// reproducible end to end.
	Seed int64
	// Metrics, when non-nil, receives the client's counters and latency
	// histograms (see DESIGN.md §10). Clients sharing a registry aggregate
	// into the same series. Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

func (c *ClientConfig) fillDefaults() {
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Retry.fillDefaults()
}

// Client talks to one store server over pooled TCP connections. All
// operations take a context, retry transient failures with exponential
// backoff + jitter, and map failures onto the package's sentinel errors.
// A Client is safe for concurrent use.
type Client struct {
	cfg    ClientConfig
	dialer Dialer
	met    clientMetrics
	ids    atomic.Uint32 // the last request id handed out

	mu     sync.Mutex
	idle   []net.Conn
	rng    *rand.Rand
	closed bool
}

// NewClient validates the config and returns a client. No connection is
// made until the first operation.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("store: client needs an address")
	}
	cfg.fillDefaults()
	d := cfg.Dialer
	if d == nil {
		d = &net.Dialer{}
	}
	return &Client{
		cfg:    cfg,
		dialer: d,
		met:    newClientMetrics(cfg.Metrics),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Addr returns the configured server address.
func (c *Client) Addr() string { return c.cfg.Addr }

// Close releases pooled connections. In-flight operations fail over to
// ErrClientClosed on their next attempt.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conn := range c.idle {
		conn.Close()
	}
	c.idle = nil
	return nil
}

// Put stores one coded block — a multi-block put of one — retrying
// transient failures. Retries are idempotent because the server
// deduplicates identical blocks.
func (c *Client) Put(ctx context.Context, b *core.CodedBlock) error {
	wire, err := marshalPut(b)
	if err != nil {
		return err
	}
	var errs [1]error
	c.putWires(ctx, [][]byte{wire}, errs[:])
	return errs[0]
}

// marshalPut is the wire encoding a put sends, with a block the wire
// cannot carry reported as ErrBadRequest.
func marshalPut(b *core.CodedBlock) ([]byte, error) {
	if b == nil {
		return nil, fmt.Errorf("%w: nil block", ErrBadRequest)
	}
	wire, err := b.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return wire, nil
}

// PutAll stores blocks with one multi-block put — more than one only
// when they exceed DefaultMaxFrame together — and returns how many the
// server stored or already held, and the first failed block's error.
func (c *Client) PutAll(ctx context.Context, blocks []*core.CodedBlock) (int, error) {
	wires := make([][]byte, len(blocks))
	for i, b := range blocks {
		wire, err := marshalPut(b)
		if err != nil {
			return 0, err
		}
		wires[i] = wire
	}
	errs := make([]error, len(wires))
	c.putWires(ctx, wires, errs)
	n := 0
	var first error
	for i, err := range errs {
		if err == nil {
			n++
		} else if first == nil {
			first = fmt.Errorf("block %d: %w", i, err)
		}
	}
	return n, first
}

// putWires stores blocks already in their wire encoding with multi-block
// puts, as many per frame as DefaultMaxFrame holds, and sets errs[i] to
// blocks[i]'s outcome: nil once the server stored or already held it. A
// frame that fails as a whole fails every block it carried; a block
// rejected alone fails alone and is not retried here. Retrying a frame is
// idempotent: the server deduplicates.
func (c *Client) putWires(ctx context.Context, wires [][]byte, errs []error) {
	for start := 0; start < len(wires); {
		end, size := start+1, 4+4+len(wires[start])
		for end < len(wires) && size+4+len(wires[end]) <= DefaultMaxFrame {
			size += 4 + len(wires[end])
			end++
		}
		c.putFrame(ctx, wires[start:end], errs[start:end])
		start = end
	}
}

// putFrame sends one multi-block put and spreads its answer over errs.
func (c *Client) putFrame(ctx context.Context, wires [][]byte, errs []error) {
	resp, err := c.do(ctx, "put", request{op: frameMultiPut, blocks: wires}, framePutAcks)
	var status []byte
	if err == nil {
		status, err = decodePutAcks(resp, len(wires))
	}
	for i := range errs {
		switch {
		case err != nil:
			errs[i] = err
		case status[i] != ackStored: // an error code: the error frame it stands for
			errs[i] = fmt.Errorf("store: put %s: %w", c.cfg.Addr,
				decodeErrFrame(append([]byte{status[i]}, "block rejected"...)))
		default:
			errs[i] = nil
		}
	}
}

// GetObject fetches the stored blocks of one object with Level <=
// maxLevel; maxLevel < 0 fetches every level. Every read names one
// object: core.AllObjects is rejected with ErrBadRequest, as are levels
// at or above the wire sentinel 0xFFFF — blocks can never carry either
// (see core.CodedBlock.MarshalBinary), so such a request is a caller
// bug, not a fetch-everything intent. So is an answer larger than
// DefaultMaxFrame: the server refuses to build it.
//
// The returned blocks alias the response they arrived in (see
// parseBlocks): decoders copy what they keep, but a caller that holds on
// to one block for long pins the whole response and should Clone it.
func (c *Client) GetObject(ctx context.Context, obj core.ObjectID, maxLevel int) ([]*core.CodedBlock, error) {
	wires, err := c.getWires(ctx, obj, maxLevel)
	if err != nil {
		return nil, err
	}
	list, err := parseBlocks(wires)
	if err != nil {
		return nil, err
	}
	out := make([]*core.CodedBlock, len(list))
	for i := range list {
		out[i] = &list[i]
	}
	return out, nil
}

// getWires is GetObject stopping short of parsing: the answer's blocks as
// the wire bytes they arrived as, which Replicated de-duplicates before
// parsing any.
func (c *Client) getWires(ctx context.Context, obj core.ObjectID, maxLevel int) ([][]byte, error) {
	if obj == core.AllObjects {
		return nil, fmt.Errorf("%w: get needs a concrete object", ErrBadRequest)
	}
	if maxLevel >= 0xFFFF {
		return nil, fmt.Errorf("%w: max level %d exceeds the wire limit %d", ErrBadRequest, maxLevel, 0xFFFE)
	}
	resp, err := c.do(ctx, "get", request{op: frameGet, body: encodeGetBody(obj, maxLevel)}, frameBlocks)
	if err != nil {
		return nil, err
	}
	return splitBlockList(nil, resp)
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, "ping", request{op: framePing}, frameOK)
	return err
}

// Stat fetches the server's inventory snapshot.
func (c *Client) Stat(ctx context.Context) (Stats, error) {
	resp, err := c.do(ctx, "stat", request{op: frameStat}, frameStats)
	if err != nil {
		return Stats{}, err
	}
	return decodeStats(resp)
}

// Delete removes every stored block of one concrete object from the
// server, returning how many blocks the engine dropped. Idempotent
// (a retry after a lost ack answers 0 removed), so it retries like any
// other op. The migration mover calls it to reclaim old owners once a
// re-homed object's new replica set has verified.
func (c *Client) Delete(ctx context.Context, obj core.ObjectID) (int, error) {
	if obj == core.AllObjects {
		return 0, fmt.Errorf("%w: delete needs a concrete object", ErrBadRequest)
	}
	resp, err := c.do(ctx, "delete", request{op: frameDelete, body: encodeDeleteBody(obj)}, frameDeleted)
	if err != nil {
		return 0, err
	}
	return decodeDeleted(resp)
}

// Segments fetches the server's on-disk segment listing. Daemons running
// the in-memory engine reject the request with ErrBadRequest.
func (c *Client) Segments(ctx context.Context) ([]SegmentInfo, error) {
	resp, err := c.do(ctx, "segments", request{op: frameSegments}, frameSegList)
	if err != nil {
		return nil, err
	}
	return decodeSegmentList(resp)
}

// Shutdown asks the server to drain and exit. The single attempt is not
// retried: a dead server is already shut down.
func (c *Client) Shutdown(ctx context.Context) error {
	_, err := c.attempt(ctx, request{op: frameShutdown}, frameOK)
	return err
}

// request is one request frame: its op and its body, given as bytes or,
// for a put, as the blocks whose list writeBlockList builds straight
// into the frame.
type request struct {
	op     byte
	body   []byte
	blocks [][]byte
}

// size is the request's body size.
func (q request) size() int {
	if q.blocks != nil {
		return blockListSize(q.blocks)
	}
	return len(q.body)
}

// write sends the request as one frame carrying id.
func (q request) write(w io.Writer, id uint32) error {
	if q.blocks != nil {
		return writeBlockList(w, q.op, id, q.blocks)
	}
	return writeFrame(w, q.op, id, q.body)
}

// do runs one request with retries. Retryable failures: dial errors,
// I/O errors, corrupt frames, and unavailable responses. Semantic
// rejections (ErrBadRequest) and context cancellation end immediately.
func (c *Client) do(ctx context.Context, op string, req request, wantResp byte) ([]byte, error) {
	t0 := time.Now()
	resp, err := c.doAttempts(ctx, op, req, wantResp)
	c.met.opNs.ObserveSince(t0)
	pick(err, c.met.opOK, c.met.opErrors).Inc()
	return resp, err
}

func (c *Client) doAttempts(ctx context.Context, op string, req request, wantResp byte) ([]byte, error) {
	if size := req.size(); size > DefaultMaxFrame {
		// The server would hang up on the length field mid-send; no retry
		// can shrink the frame.
		return nil, fmt.Errorf("store: %s %s: %w: %d-byte request exceeds the frame limit %d",
			op, c.cfg.Addr, ErrBadRequest, size, DefaultMaxFrame)
	}
	var lastErr error
	for i := 0; i < c.cfg.Retry.MaxAttempts; i++ {
		if i > 0 {
			c.met.retries.Inc()
			d := c.backoff(i)
			c.met.backoffSleeps.Inc()
			c.met.backoffNs.Observe(int64(d))
			if err := c.sleep(ctx, d); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := c.attempt(ctx, req, wantResp)
		if err == nil {
			return resp, nil
		}
		if errors.Is(err, ErrBadRequest) || errors.Is(err, ErrStoreFull) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, ErrClientClosed) {
			// A full store cannot un-fill within a backoff window, so the
			// rejection surfaces immediately; the replicated layer fails the
			// block over to the next replica instead of burning retries here.
			return nil, fmt.Errorf("store: %s %s: %w", op, c.cfg.Addr, err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("store: %s %s failed after %d attempts: %w: %w",
		op, c.cfg.Addr, c.cfg.Retry.MaxAttempts, ErrStoreUnavailable, lastErr)
}

// attempt performs one request/response exchange, on a pooled connection
// when one is idle. A pooled connection may have died with its server
// while it sat in the pool, and the only way to find out is to use it: an
// exchange on a reused connection that ends before the first response
// byte, for any reason but a timeout or the caller giving up, is that
// discovery, not a failure of the server as it is now. The rest of the
// pool died with it, so the attempt drops it, dials once and redoes the
// exchange — no retry consumed, no backoff slept (the net/http idle-conn
// rule). Every op is idempotent, so a request that did reach the old
// server is harmless to repeat. A fresh connection gets no such second
// chance: its faults are the server's and cost a retry.
func (c *Client) attempt(ctx context.Context, req request, wantResp byte) ([]byte, error) {
	conn, reused, err := c.getConn(ctx)
	if err != nil {
		return nil, err
	}
	c.met.attempts.Inc()
	resp, err := c.exchange(ctx, conn, req, wantResp)
	if err == nil || !reused || !staleConn(ctx, err) {
		return resp, err
	}
	c.met.connsStale.Inc()
	c.dropIdle()
	if conn, err = c.dial(ctx); err != nil {
		return nil, err
	}
	return c.exchange(ctx, conn, req, wantResp)
}

// staleConn reports whether err, from an exchange on a pooled
// connection, says the connection was dead before the request: nothing
// came back, and neither a deadline (the peer is slow or cut off, which
// is a fault of the server as it is now) nor the caller giving up
// explains it.
func staleConn(ctx context.Context, err error) bool {
	var unanswered noFrameError
	var ne net.Error
	return errors.As(err, &unanswered) && !(errors.As(err, &ne) && ne.Timeout()) && ctx.Err() == nil
}

// exchange sends one request on conn and reads its response, returning
// conn to the pool when the stream is still in sync and closing it
// otherwise. A failure before any response byte wraps noFrameError. An
// answer carrying another request's id is a corrupt frame — the stream
// is out of step with its requests — except a connection-level error
// frame, which carries id 0.
func (c *Client) exchange(ctx context.Context, conn net.Conn, req request, wantResp byte) ([]byte, error) {
	// Order matters: set the op deadline FIRST, then arm the poison. The
	// poison (a past deadline) interrupts a blocked read the moment the
	// context dies; arming it before SetDeadline would let a cancellation
	// firing in that window be overwritten by the fresh op deadline, and
	// the attempt would ride out the full OpTimeout anyway. A context
	// that can never be cancelled arms nothing: its stop always reports
	// the poison prevented.
	conn.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
	stop := neverPoisoned
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	}
	defer stop()
	id := c.nextID()
	if err := req.write(conn, id); err != nil {
		conn.Close()
		return nil, c.ctxOr(ctx, noFrameError{err})
	}
	typ, respID, resp, err := readFrame(conn, DefaultMaxFrame)
	if err != nil {
		conn.Close()
		return nil, c.ctxOr(ctx, err)
	}
	if respID != id && (typ != frameErr || respID != 0) {
		conn.Close()
		return nil, fmt.Errorf("%w: %q answer carries request id %d, want %d", ErrCorruptFrame, typ, respID, id)
	}
	switch typ {
	case wantResp:
		c.release(conn, stop)
		return resp, nil
	case frameErr:
		err := decodeErrFrame(resp)
		if errors.Is(err, ErrBadRequest) || errors.Is(err, ErrStoreFull) {
			// The connection is still in sync after a semantic or
			// store-full rejection (the server keeps serving gets);
			// corruption and drain responses are terminal.
			c.release(conn, stop)
		} else {
			conn.Close()
		}
		return nil, err
	default:
		conn.Close()
		return nil, fmt.Errorf("%w: unexpected %q response frame", ErrCorruptFrame, typ)
	}
}

// neverPoisoned is exchange's stop when there is no poison to stop.
func neverPoisoned() bool { return true }

// nextID hands out the next request id, skipping 0 (see frame.go).
func (c *Client) nextID() uint32 {
	for {
		if id := c.ids.Add(1); id != 0 {
			return id
		}
	}
}

// ctxOr prefers the context's error over a deadline-induced I/O error,
// so cancellation surfaces as context.Canceled rather than a timeout.
func (c *Client) ctxOr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// getConn hands out an idle pooled connection (reused = true) or dials.
func (c *Client) getConn(ctx context.Context) (conn net.Conn, reused bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClientClosed
	}
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		c.met.poolHits.Inc()
		return conn, true, nil
	}
	c.mu.Unlock()
	c.met.poolMisses.Inc()
	conn, err = c.dial(ctx)
	return conn, false, err
}

func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	c.met.dials.Inc()
	conn, err := c.dialer.DialContext(dctx, "tcp", c.cfg.Addr)
	if err != nil {
		c.met.dialErrors.Inc()
		return nil, fmt.Errorf("dial %s: %w", c.cfg.Addr, err)
	}
	return meterConn(conn, c.met.bytesIn, c.met.bytesOut), nil
}

// dropIdle closes every pooled connection: the server they were dialed
// to is gone (a stale connection was just found) or has been replaced
// (Placed revived the node).
func (c *Client) dropIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
}

// release returns a connection to the idle pool. stop disarms the
// cancellation poison; when it reports the poison already fired, the
// connection carries a deadline in the past (and the stream may hold a
// half-delivered response), so it must be closed, never pooled.
func (c *Client) release(conn net.Conn, stop func() bool) {
	if !stop() {
		c.met.poisoned.Inc()
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= maxIdleConns {
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
}

func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.Retry.BaseDelay << (attempt - 1)
	if d > c.cfg.Retry.MaxDelay || d <= 0 {
		d = c.cfg.Retry.MaxDelay
	}
	c.mu.Lock()
	f := 1 - retryJitter*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
