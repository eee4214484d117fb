package store

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// --- helpers ---------------------------------------------------------------

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func fastClientCfg(addr string, d Dialer) ClientConfig {
	return ClientConfig{
		Addr:        addr,
		Dialer:      d,
		DialTimeout: time.Second,
		OpTimeout:   2 * time.Second,
		Retry: RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
		},
	}
}

func newTestClient(t *testing.T, addr string, d Dialer) *Client {
	t.Helper()
	c, err := NewClient(fastClientCfg(addr, d))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testCode builds a 2-level PLC code (4 critical + 12 bulk source blocks
// of 32 bytes) and n coded blocks from a fixed seed.
func testCode(t *testing.T, n int) (*core.Levels, [][]byte, []*core.CodedBlock) {
	t.Helper()
	levels, err := core.NewLevels(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 32)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.PriorityDistribution{0.4, 0.6}, n)
	if err != nil {
		t.Fatal(err)
	}
	return levels, sources, blocks
}

// decodeAll feeds blocks to a fresh decoder and returns it.
func decodeAll(t *testing.T, levels *core.Levels, blocks []*core.CodedBlock) *core.Decoder {
	t.Helper()
	dec, err := core.NewDecoder(core.PLC, levels, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := dec.Add(b); err != nil {
			t.Fatalf("decoder rejected collected block: %v", err)
		}
	}
	return dec
}

func checkCriticalLevel(t *testing.T, dec *core.Decoder, levels *core.Levels, sources [][]byte) {
	t.Helper()
	if !dec.LevelDecoded(0) {
		t.Fatalf("critical level not decoded (%d/%d blocks)", dec.DecodedBlocks(), levels.Total())
	}
	for i := 0; i < levels.Size(0); i++ {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Fatalf("critical block %d corrupted", i)
		}
	}
}

// --- frame layer -----------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("hello frames")
	if err := writeFrame(&buf, framePut, body); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != framePut || !bytes.Equal(got, body) {
		t.Fatalf("round trip gave type %q body %q", typ, got)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, framePut, []byte("payload under test")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip every byte past the length prefix in turn: CRC must catch all.
	for i := 4; i < len(raw); i++ {
		mauled := append([]byte(nil), raw...)
		mauled[i] ^= 0xA5
		_, _, err := readFrame(bytes.NewReader(mauled), DefaultMaxFrame)
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at %d: err = %v, want ErrCorruptFrame", i, err)
		}
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, framePut, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	_, _, err := readFrame(&buf, 512)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversize frame err = %v, want ErrCorruptFrame", err)
	}
}

// --- single server ---------------------------------------------------------

func TestServerPutGetStatPing(t *testing.T) {
	srv := newTestServer(t, ServerConfig{})
	cl := newTestClient(t, srv.Addr(), nil)
	ctx := context.Background()

	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	levels, sources, blocks := testCode(t, 40)
	if n, err := cl.PutAll(ctx, blocks); err != nil || n != len(blocks) {
		t.Fatalf("PutAll = %d, %v", n, err)
	}
	// Idempotent re-put: dedup keeps the count stable.
	if err := cl.Put(ctx, blocks[0]); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != len(blocks) {
		t.Fatalf("Stat.Blocks = %d, want %d (dedup)", st.Blocks, len(blocks))
	}
	total := 0
	for _, lc := range st.PerLevel {
		total += lc.Count
	}
	if total != st.Blocks {
		t.Fatalf("per-level counts sum to %d, want %d", total, st.Blocks)
	}

	got, err := cl.GetObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("Get returned %d blocks, want %d", len(got), len(blocks))
	}
	dec := decodeAll(t, levels, got)
	checkCriticalLevel(t, dec, levels, sources)
	if !dec.Complete() {
		t.Fatal("full dump should decode completely")
	}

	// Level filter: only level-0 blocks come back.
	lvl0, err := cl.GetObject(ctx, core.ZeroObject, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range lvl0 {
		if b.Level != 0 {
			t.Fatalf("level filter leaked a level-%d block", b.Level)
		}
	}
	if len(lvl0) == 0 || len(lvl0) >= len(blocks) {
		t.Fatalf("level filter returned %d of %d blocks", len(lvl0), len(blocks))
	}
}

func TestClientContextCancel(t *testing.T) {
	srv := newTestServer(t, ServerConfig{})
	cl := newTestClient(t, srv.Addr(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, blocks := testCode(t, 1)
	if err := cl.Put(ctx, blocks[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Put on canceled ctx = %v, want context.Canceled", err)
	}
}

// flakyDialer fails the first n dials, then delegates.
type flakyDialer struct {
	remaining atomic.Int64
	base      net.Dialer
}

func (d *flakyDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	if d.remaining.Add(-1) >= 0 {
		return nil, errors.New("flaky: injected dial failure")
	}
	return d.base.DialContext(ctx, network, addr)
}

func TestClientRetriesDialFailures(t *testing.T) {
	srv := newTestServer(t, ServerConfig{})
	d := &flakyDialer{}
	d.remaining.Store(3)
	cl := newTestClient(t, srv.Addr(), d)
	_, _, blocks := testCode(t, 1)
	if err := cl.Put(context.Background(), blocks[0]); err != nil {
		t.Fatalf("retries should absorb 3 dial failures: %v", err)
	}
	if srv.Len() != 1 {
		t.Fatalf("server holds %d blocks, want 1", srv.Len())
	}
}

func TestClientExhaustedRetriesReportUnavailable(t *testing.T) {
	cl := newTestClient(t, "127.0.0.1:1", nil) // reserved port: refused
	cl.cfg.Retry.MaxAttempts = 2
	_, _, blocks := testCode(t, 1)
	err := cl.Put(context.Background(), blocks[0])
	if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("err = %v, want ErrStoreUnavailable", err)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	srv := newTestServer(t, ServerConfig{})
	cl := newTestClient(t, srv.Addr(), nil)
	ctx := context.Background()
	_, _, blocks := testCode(t, 4)
	if _, err := cl.PutAll(ctx, blocks); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done() not closed after Shutdown")
	}
	cl.cfg.Retry.MaxAttempts = 2
	if err := cl.Ping(ctx); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("ping after shutdown = %v, want ErrStoreUnavailable", err)
	}
}

func TestShutdownFrameDrainsServer(t *testing.T) {
	srv := newTestServer(t, ServerConfig{})
	cl := newTestClient(t, srv.Addr(), nil)
	if err := cl.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("server did not drain after shutdown frame")
	}
}

// --- replication policy ----------------------------------------------------

func TestReplicasForPolicy(t *testing.T) {
	cases := []struct {
		replicas, levels, tolerance int
		want                        []int
	}{
		{3, 2, 1, []int{3, 2}},
		{3, 3, 1, []int{3, 2, 2}}, // round(0.5) rounds half away from zero
		{5, 3, 1, []int{5, 3, 2}},
		{5, 5, 2, []int{5, 4, 4, 3, 3}},
		{3, 1, 1, []int{3}},
		{2, 4, 3, []int{2, 2, 2, 2}}, // tolerance clamped to replica count
	}
	for _, tc := range cases {
		clients := make([]*Client, tc.replicas)
		for i := range clients {
			clients[i] = &Client{cfg: ClientConfig{Addr: "x"}}
		}
		r, err := NewReplicated(clients, tc.levels, ReplicatedConfig{Tolerance: tc.tolerance})
		if err != nil {
			t.Fatal(err)
		}
		for lvl, want := range tc.want {
			if got := r.ReplicasFor(lvl); got != want {
				t.Errorf("R=%d L=%d f=%d: ReplicasFor(%d) = %d, want %d",
					tc.replicas, tc.levels, tc.tolerance, lvl, got, want)
			}
		}
	}
}

func TestReplicatedSpreadAndCollect(t *testing.T) {
	servers := make([]*Server, 3)
	clients := make([]*Client, 3)
	for i := range servers {
		servers[i] = newTestServer(t, ServerConfig{})
		clients[i] = newTestClient(t, servers[i].Addr(), nil)
	}
	repl, err := NewReplicated(clients, 2, ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	levels, sources, blocks := testCode(t, 40)
	ctx := context.Background()
	if n, err := repl.PutAll(ctx, blocks); err != nil || n != len(blocks) {
		t.Fatalf("PutAll = %d, %v", n, err)
	}

	// Level 0 lands on all 3 replicas, level 1 on exactly 2.
	var n0, n1 int
	for _, b := range blocks {
		if b.Level == 0 {
			n0++
		} else {
			n1++
		}
	}
	stored := 0
	for _, s := range servers {
		stored += s.Len()
	}
	if want := 3*n0 + 2*n1; stored != want {
		t.Fatalf("replicas hold %d copies, want %d (3x%d + 2x%d)", stored, want, n0, n1)
	}

	got, err := repl.CollectObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("Collect deduped to %d blocks, want %d", len(got), len(blocks))
	}
	dec := decodeAll(t, levels, got)
	checkCriticalLevel(t, dec, levels, sources)
}
