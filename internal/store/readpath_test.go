package store

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// wireOf marshals every block, failing the test on error.
func wireOf(t *testing.T, blocks []*core.CodedBlock) [][]byte {
	t.Helper()
	out := make([][]byte, len(blocks))
	for i, b := range blocks {
		w, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = w
	}
	return out
}

// TestAliasedBlocksSurviveNextGet pins the response-buffer ownership
// rule on the client: blocks of one get alias that get's response body,
// which nothing reuses — a second get on the same pooled connection must
// leave them byte-identical.
func TestAliasedBlocksSurviveNextGet(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	srv := newTestServer(t, ServerConfig{})
	cfg := fastClientCfg(srv.Addr(), nil)
	cfg.Metrics = reg
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, first := keyedBlocks(t, 7, 12)
	_, _, second := keyedBlocks(t, 8, 12)
	for _, b := range append(first, second...) {
		if err := cl.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.GetObject(ctx, 7, -1)
	if err != nil || len(got) != len(first) {
		t.Fatalf("first get: %d blocks, %v", len(got), err)
	}
	before := wireOf(t, got)
	if other, err := cl.GetObject(ctx, 8, -1); err != nil || len(other) != len(second) {
		t.Fatalf("second get: %d blocks, %v", len(other), err)
	}
	if dials := reg.Counter("store_client_dials_total").Value(); dials != 1 {
		t.Fatalf("%d dials: the gets did not share a connection", dials)
	}
	for i, w := range wireOf(t, got) {
		if !bytes.Equal(w, before[i]) || !bytes.Equal(w, wireOf(t, first[i:i+1])[0]) {
			t.Fatalf("block %d of the first get changed under the second", i)
		}
	}
}

// TestPutCopiesOutOfConnectionScratch pins the other side of the rule:
// the server reads every request of a connection into one scratch
// buffer, so the engine must own what it stores. Two puts on one
// connection, the second overwriting the scratch the first arrived in,
// must both read back intact.
func TestPutCopiesOutOfConnectionScratch(t *testing.T) {
	ctx := context.Background()
	srv := newTestServer(t, ServerConfig{})
	cfg := fastClientCfg(srv.Addr(), nil)
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, blocks := keyedBlocks(t, 7, 2)
	blocks[1].Payload = bytes.Repeat([]byte{0xA5}, len(blocks[0].Payload)) // same frame size, other bytes
	for _, b := range blocks {
		if err := cl.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.GetObject(ctx, 7, -1)
	if err != nil || len(got) != 2 {
		t.Fatalf("get: %d blocks, %v", len(got), err)
	}
	for i, w := range wireOf(t, got) {
		if !bytes.Equal(w, wireOf(t, blocks[i:i+1])[0]) {
			t.Fatalf("stored block %d does not match what was put", i)
		}
	}
}

// TestCollectDedupSurvivesHashCollisions forces every block onto one
// hash value: dedup must still return each distinct block exactly once
// (bytes are compared on a hit) and still drop and count every true copy.
func TestCollectDedupSurvivesHashCollisions(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	levels, _, blocks := testCode(t, 12)
	clients := make([]*Client, 3)
	for i := range clients {
		clients[i] = newTestClient(t, newTestServer(t, ServerConfig{}).Addr(), nil)
	}
	repl, err := NewReplicated(clients, levels.Count(), ReplicatedConfig{Tolerance: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	repl.wireHash = func([]byte) uint64 { return 42 }
	copies := 0
	for _, b := range blocks {
		if err := repl.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
		copies += repl.ReplicasFor(b.Level)
	}
	got, err := repl.CollectObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := blockSetKey(t, blocks)
	if have := blockSetKey(t, got); len(have) != len(want) {
		t.Fatalf("collected %d blocks, want the %d distinct ones", len(have), len(want))
	} else {
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("collected set differs from the put set at %d", i)
			}
		}
	}
	if dups := reg.Counter("store_replicated_collect_dup_blocks_total").Value(); dups != uint64(copies-len(blocks)) {
		t.Fatalf("%d duplicates counted, want %d (%d copies of %d blocks)", dups, copies-len(blocks), copies, len(blocks))
	}
}

// restartServer shuts srv down and starts a fresh, empty server on the
// same address, as a wiped node coming back does.
func restartServer(t *testing.T, srv *Server) *Server {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, ServerConfig{Addr: srv.Addr()})
}

// TestStaleConnectionRedialsForFree pins ROADMAP 1d: a pooled connection
// that died with its server costs one redial inside the same attempt —
// no retry, no backoff — and takes the rest of the idle pool with it.
func TestStaleConnectionRedialsForFree(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	srv := newTestServer(t, ServerConfig{})
	cfg := fastClientCfg(srv.Addr(), nil)
	cfg.Metrics = reg
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Warm two pooled connections: one op holds the first while the
	// second dials.
	a, _, err := cl.getConn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	cl.release(a, func() bool { return true })
	restartServer(t, srv)

	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("first op after the restart: %v", err)
	}
	for name, want := range map[string]uint64{
		"store_client_conns_stale_total":    1,
		"store_client_retries_total":        0,
		"store_client_backoff_sleeps_total": 0,
		"store_client_op_errors_total":      0,
		"store_client_dials_total":          3, // two to warm the pool, one redial
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	cl.mu.Lock()
	idle := len(cl.idle)
	cl.mu.Unlock()
	if idle != 1 {
		t.Errorf("%d idle connections after the redial, want only the fresh one", idle)
	}
}

// answerOnceListener serves the first request of each connection with an
// OK frame and then reads forever without answering: a peer that goes
// quiet under a warm connection, which is not the same as a dead one.
func answerOnceListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
			go func() {
				_, id, _, err := readFrame(conn, DefaultMaxFrame)
				if err != nil {
					return
				}
				writeFrame(conn, frameOK, id, nil)
				for {
					if _, _, _, err := readFrame(conn, DefaultMaxFrame); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestTimeoutOnReusedConnectionCostsARetry pins the limit of the free
// redial: a timeout says the peer is slow or cut off, not that the
// connection was dead before the request, so it is a failed attempt like
// any other.
func TestTimeoutOnReusedConnectionCostsARetry(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	cfg := fastClientCfg(answerOnceListener(t), nil)
	cfg.Metrics = reg
	cfg.OpTimeout = 40 * time.Millisecond
	cfg.Retry.MaxAttempts = 2
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	// Attempt 1 reuses the warm connection and times out; attempt 2 dials
	// a fresh one, gets its single answer.
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping through a retry: %v", err)
	}
	if stale, retries := reg.Counter("store_client_conns_stale_total").Value(), reg.Counter("store_client_retries_total").Value(); stale != 0 || retries != 1 {
		t.Fatalf("conns_stale %d, retries %d; want 0 and 1", stale, retries)
	}
}

// TestReviveDropsPooledConnections pins that Placed does not wait for an
// op to trip over connections dialed to a node's previous life.
func TestReviveDropsPooledConnections(t *testing.T) {
	ctx := context.Background()
	fx := newPlacedFixture(t, 3, PlacedConfig{})
	addr := fx.servers[0].Addr()
	cl, err := fx.placed.ClientFor(addr)
	if err != nil {
		t.Fatal(err)
	}
	idle := func() int {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return len(cl.idle)
	}
	for name, revive := range map[string]func(string) error{
		"SetAlive": func(a string) error { return fx.placed.SetAlive(a, true) },
		"Join":     fx.placed.Join,
	} {
		if err := cl.Ping(ctx); err != nil {
			t.Fatal(err)
		}
		if idle() == 0 {
			t.Fatal("ping left no pooled connection")
		}
		if err := fx.placed.SetAlive(addr, false); err != nil {
			t.Fatal(err)
		}
		if err := revive(addr); err != nil {
			t.Fatal(err)
		}
		if n := idle(); n != 0 {
			t.Errorf("%s(revive) left %d pooled connections", name, n)
		}
	}
}

// TestClosedEngineAnswersUnavailable pins the server side of "a closed
// engine must not answer empty": the get comes back as the unavailable
// error a client fails over on.
func TestClosedEngineAnswersUnavailable(t *testing.T) {
	eng := NewMemStore(0)
	srv := newTestServer(t, ServerConfig{Blocks: eng})
	cfg := fastClientCfg(srv.Addr(), nil)
	cfg.Retry.MaxAttempts = 1
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	eng.Close()
	if got, err := cl.GetObject(context.Background(), core.ZeroObject, -1); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("get from a closed engine = %d blocks, %v; want ErrStoreUnavailable", len(got), err)
	}
}

// wrongIDListener answers every request with an OK frame carrying the
// request's id plus one: a peer whose answers are out of step with its
// requests.
func wrongIDListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
			go func() {
				for {
					_, id, _, err := readFrame(conn, DefaultMaxFrame)
					if err != nil {
						return
					}
					writeFrame(conn, frameOK, id+1, nil)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestMismatchedRequestIDIsCorrupt pins the client side of the request
// id: an answer to another request is a corrupt frame, and the
// connection it came on is closed, never pooled.
func TestMismatchedRequestIDIsCorrupt(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := fastClientCfg(wrongIDListener(t), nil)
	cfg.Metrics = reg
	cfg.Retry.MaxAttempts = 2
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(context.Background()); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("ping answered under another id: err = %v, want ErrCorruptFrame", err)
	}
	cl.mu.Lock()
	idle := len(cl.idle)
	cl.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d connections pooled after out-of-step answers", idle)
	}
	if dials := reg.Counter("store_client_dials_total").Value(); dials != 2 {
		t.Fatalf("%d dials for 2 attempts: a connection was reused", dials)
	}
}

// mergeAnswers merges answers in order the way a collect does, recording
// the error of each answer that did not merge.
func mergeAnswers(repl *Replicated, answers [][][]byte, errs []error) []*core.CodedBlock {
	m := repl.newMerger()
	for i, wires := range answers {
		if errs[i] == nil {
			_, errs[i] = m.add(wires)
		}
	}
	return m.out
}

// TestMergeCopiesKeepsAnswersWhole pins dedup-before-parse against a bad
// answer: replica 0 answers block A and a frame that does not parse, so
// its whole answer is dropped — and A, which it saw first, must still come
// back from replica 1 instead of being dropped as a copy of a block that
// was never kept. Copies in kept answers are counted, the bad answer's
// are not.
func TestMergeCopiesKeepsAnswersWhole(t *testing.T) {
	reg := metrics.NewRegistry()
	repl, err := NewReplicated([]*Client{{}, {}, {}}, 2, ReplicatedConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, _, blocks := keyedBlocks(t, 7, 3)
	w := wireOf(t, blocks)
	bad := []byte("PB\x09 not a block")
	answers := [][][]byte{{w[0], bad}, {w[0], w[1]}, {w[1], w[2], w[2]}}
	errs := make([]error, len(answers))
	got := mergeAnswers(repl, answers, errs)
	if !errors.Is(errs[0], ErrCorruptFrame) || errs[1] != nil || errs[2] != nil {
		t.Fatalf("answer errors %v, want only replica 0's, as ErrCorruptFrame", errs)
	}
	if len(got) != 3 {
		t.Fatalf("merged %d blocks, want A, B and C", len(got))
	}
	for i, wire := range wireOf(t, got) {
		if !bytes.Equal(wire, w[i]) {
			t.Fatalf("merged block %d is not the put block %d", i, i)
		}
	}
	if dups := reg.Counter("store_replicated_collect_dup_blocks_total").Value(); dups != 2 {
		t.Fatalf("%d copies counted, want 2 (B and C again on replica 2)", dups)
	}
}
