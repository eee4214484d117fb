package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestDecodeBlockListHostileCount pins the pre-allocation clamp: a body
// whose wire count claims billions of entries must fail fast with
// ErrCorruptFrame instead of sizing a multi-GB slice from a 12-byte
// frame.
func TestDecodeBlockListHostileCount(t *testing.T) {
	for _, claim := range []uint32{2, 1 << 16, 1 << 31, 0xFFFFFFFF} {
		body := binary.BigEndian.AppendUint32(nil, claim)
		body = append(body, make([]byte, 8)...) // room for at most one entry
		if _, err := decodeBlockList(body); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("count %d: err = %v, want ErrCorruptFrame", claim, err)
		}
	}
	// The rejection happens before the result slice is sized: the error
	// path performs only its own small allocations, independent of the
	// claimed count.
	hostile := binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF)
	hostile = append(hostile, make([]byte, 8)...)
	allocs := testing.AllocsPerRun(100, func() {
		decodeBlockList(hostile)
	})
	if allocs > 6 {
		t.Fatalf("hostile count costs %.1f allocs/op, want the error path only", allocs)
	}
	// A consistent count still decodes (zero entries here).
	if got, err := decodeBlockList(binary.BigEndian.AppendUint32(nil, 0)); err != nil || len(got) != 0 {
		t.Fatalf("empty list: %v, %v", got, err)
	}
}

// sparseFrame hand-assembles a v3 pairs-mode block frame so the tests
// can produce the hostile shapes MarshalBinary refuses to emit.
func sparseFrame(nCoeff uint32, idx []uint32, val []byte) []byte {
	out := []byte{'P', 'B', 3}
	out = binary.BigEndian.AppendUint16(out, 0) // level
	out = binary.BigEndian.AppendUint32(out, nCoeff)
	out = binary.BigEndian.AppendUint32(out, 0) // no payload
	out = append(out, 0)                        // pairs mode
	out = binary.BigEndian.AppendUint32(out, uint32(len(idx)))
	for _, j := range idx {
		out = binary.BigEndian.AppendUint32(out, j)
	}
	return append(out, val...)
}

// wrapBlockList embeds raw block frames in a frameBlocks body the way the
// server does, bypassing the client-side marshal checks.
func wrapBlockList(frames ...[]byte) []byte {
	body := binary.BigEndian.AppendUint32(nil, uint32(len(frames)))
	for _, f := range frames {
		body = binary.BigEndian.AppendUint32(body, uint32(len(f)))
		body = append(body, f...)
	}
	return body
}

// TestDecodeBlockListHostileSparse pins the store-side handling of v3
// sparse frames: a hostile coefficient section inside an otherwise
// well-formed block list must surface as ErrCorruptFrame (the core
// unmarshal error wrapped at the framing layer), never as a panic or a
// silently mangled block.
func TestDecodeBlockListHostileSparse(t *testing.T) {
	// A frame whose nnz field claims 4 billion pairs while shipping none:
	// the clamp must bound the claim by the bytes present before any
	// allocation sized from it.
	inflated := sparseFrame(64, nil, nil)
	binary.BigEndian.PutUint32(inflated[len(inflated)-4:], 0xFFFFFFFF)

	for name, frame := range map[string][]byte{
		"inflated nnz count": inflated,
		"duplicate indices":  sparseFrame(64, []uint32{3, 3}, []byte{1, 2}),
		"descending indices": sparseFrame(64, []uint32{5, 2}, []byte{1, 2}),
		"index out of range": sparseFrame(64, []uint32{64}, []byte{1}),
		"zero pair value":    sparseFrame(64, []uint32{1}, []byte{0}),
		"giant dense claim":  sparseFrame(1<<31, []uint32{0}, []byte{1}),
	} {
		if _, err := decodeBlockList(wrapBlockList(frame)); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err = %v, want ErrCorruptFrame", name, err)
		}
	}
}

// TestDecodeBlockListSparseRoundTrip pins that canonical v3 frames flow
// through the store framing unchanged: a sparse block survives
// encode/decode still sparse and re-marshals bit-identically, and a v1
// dense frame decodes to the exact bytes it arrived as.
func TestDecodeBlockListSparseRoundTrip(t *testing.T) {
	sp := &core.CodedBlock{
		Level: 1,
		SpCoeff: &core.SparseCoeff{
			Len: 512,
			Idx: []uint32{7, 99, 400},
			Val: []byte{3, 5, 9},
		},
		Payload: []byte{0xAA, 0xBB},
	}
	spWire, err := sp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_, _, dense := testCode(t, 1)
	denseWire, err := dense[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	got, err := decodeBlockList(wrapBlockList(spWire, denseWire))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d blocks, want 2", len(got))
	}
	if !got[0].IsSparse() {
		t.Fatal("sparse block densified by store framing")
	}
	if got[1].IsSparse() {
		t.Fatal("dense block sparsified by store framing")
	}
	for i, want := range [][]byte{spWire, denseWire} {
		back, err := got[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, want) {
			t.Errorf("block %d re-marshal drifted from wire bytes", i)
		}
	}
}

// TestStoreSparseEndToEnd puts a sparse block through a live server and
// reads it back: the v3 frame crosses the socket framing intact.
func TestStoreSparseEndToEnd(t *testing.T) {
	srv := newTestServer(t, ServerConfig{})
	cl := newTestClient(t, srv.Addr(), nil)
	ctx := context.Background()

	levels, sources, _ := testCode(t, 0)
	enc, err := core.NewEncoder(core.PLC, levels, sources, core.WithSparsity(6))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	blocks, err := enc.EncodeBatch(rng, core.PriorityDistribution{0.4, 0.6}, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := cl.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	back, err := cl.GetObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	sparseSeen := 0
	for _, b := range back {
		if b.IsSparse() {
			sparseSeen++
		}
	}
	if sparseSeen == 0 {
		t.Fatal("no sparse blocks survived the store round trip")
	}
	dec := decodeAll(t, levels, back)
	checkCriticalLevel(t, dec, levels, sources)
}

// TestEncodeBlockListBounds pins the encoder side of the block list: the
// frame writeBlockList builds in place (length and CRC patched in after
// the body) is one the reader accepts, with the body wrapBlockList spells
// out by hand — and an answer past the frame limit, which no reader
// accepts, is a bad request with nothing written.
func TestEncodeBlockListBounds(t *testing.T) {
	blocks := [][]byte{{1, 2}, {3}}
	var wire bytes.Buffer
	if err := writeBlockList(&wire, blocks); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(&wire, DefaultMaxFrame)
	if err != nil || typ != frameBlocks {
		t.Fatalf("read back: type %q, err %v", typ, err)
	}
	if !bytes.Equal(body, wrapBlockList(blocks...)) {
		t.Fatalf("body %x, want %x", body, wrapBlockList(blocks...))
	}
	if wire.Len() != 0 {
		t.Fatalf("%d bytes written past the frame", wire.Len())
	}

	mib := make([]byte, 1<<20)
	big := make([][]byte, 17)
	for i := range big {
		big[i] = mib
	}
	if err := writeBlockList(&wire, big); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("17 MiB answer: err = %v, want ErrBadRequest", err)
	}
	if wire.Len() != 0 {
		t.Fatalf("a refused answer wrote %d bytes", wire.Len())
	}
	if err := writeBlockList(&wire, big[:15]); err != nil {
		t.Fatalf("15 MiB answer: %v", err)
	}
}

// TestOversizedPutFailsFast pins that a block too large for one frame is
// refused by the client before it is sent: a bad request, no attempt and
// no retry — the server would only hang up on the length field.
func TestOversizedPutFailsFast(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := newTestServer(t, ServerConfig{})
	cfg := fastClientCfg(srv.Addr(), nil)
	cfg.Metrics = reg
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := &core.CodedBlock{Coeff: []byte{1}, Payload: make([]byte, DefaultMaxFrame)}
	err = cl.Put(context.Background(), b)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized put: err = %v, want ErrBadRequest", err)
	}
	for _, name := range []string{"store_client_attempts_total", "store_client_retries_total"} {
		if n := reg.Counter(name).Value(); n != 0 {
			t.Errorf("%s = %d, want 0", name, n)
		}
	}
	if srv.Len() != 0 {
		t.Fatalf("server holds %d blocks", srv.Len())
	}
}

// TestOversizedGetAnswerFailsFast pins the read side of the frame limit:
// an object holding more than one frame of blocks on a node is answered
// with a bad request naming the limit, after one attempt — not built and
// sent again on every retry, each copy rejected as corrupt by a client
// that then reports the node unavailable.
func TestOversizedGetAnswerFailsFast(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := newTestServer(t, ServerConfig{})
	cfg := fastClientCfg(srv.Addr(), nil)
	cfg.Metrics = reg
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	obj := core.NamedObject("big")
	for i := 0; i < 5; i++ {
		b := &core.CodedBlock{Object: obj, Coeff: []byte{byte(1 + i)}, Payload: make([]byte, 4<<20)}
		if err := cl.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	attempts := reg.Counter("store_client_attempts_total").Value()
	_, err = cl.GetObject(ctx, obj, -1)
	if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("20 MiB get: err = %v, want ErrBadRequest naming the frame limit", err)
	}
	if n := reg.Counter("store_client_attempts_total").Value() - attempts; n != 1 {
		t.Errorf("get made %d attempts, want 1", n)
	}
	if n := reg.Counter("store_client_retries_total").Value(); n != 0 {
		t.Errorf("store_client_retries_total = %d, want 0", n)
	}
	// The connection stays in sync: the next request on it succeeds.
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeStatsBounds pins the stat-frame bounds checks: level 65535
// (the top of the wire range) round-trips, while values that would
// silently truncate through the uint16/uint32 wire fields are rejected
// with ErrBadRequest.
func TestEncodeStatsBounds(t *testing.T) {
	top := Stats{
		Blocks:   3,
		Bytes:    96,
		PerLevel: []LevelCount{{Level: 0, Count: 1, Bytes: 32}, {Level: 0xFFFF, Count: 2, Bytes: 64}},
	}
	body, err := encodeStats(top)
	if err != nil {
		t.Fatalf("level 65535 rejected: %v", err)
	}
	back, err := decodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.PerLevel) != 2 || back.PerLevel[1].Level != 0xFFFF || back.PerLevel[1].Count != 2 {
		t.Fatalf("level 65535 round trip drifted: %+v", back)
	}

	for name, st := range map[string]Stats{
		"level too high":  {PerLevel: []LevelCount{{Level: 0x10000, Count: 1}}},
		"level negative":  {PerLevel: []LevelCount{{Level: -1, Count: 1}}},
		"count overflow":  {PerLevel: []LevelCount{{Level: 0, Count: 1 << 32}}},
		"blocks overflow": {Blocks: 1 << 32},
		"too many levels": {PerLevel: make([]LevelCount, 0x10000)},
	} {
		if _, err := encodeStats(st); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}

// TestGetRejectsSentinelLevel pins the API-side request validation: the
// wire sentinel 0xFFFF (and anything above) and the all-objects wildcard
// are caller bugs, not fetch-everything requests. The checks fire before
// any dial.
func TestGetRejectsSentinelLevel(t *testing.T) {
	cl, err := NewClient(ClientConfig{Addr: "127.0.0.1:1"}) // never dialed
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, lvl := range []int{0xFFFF, 0x10000, 1 << 30} {
		if _, err := cl.GetObject(context.Background(), core.ZeroObject, lvl); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Get(%d) err = %v, want ErrBadRequest", lvl, err)
		}
	}
	if _, err := cl.GetObject(context.Background(), core.AllObjects, -1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("Get(all objects) err = %v, want ErrBadRequest", err)
	}
}

// stallListener accepts connections and reads them forever without
// responding — the worst-case peer for cancellation latency.
func stallListener(t *testing.T) string {
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
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCancelAbortsStalledAttempt pins the poison ordering fix: with a
// 30-second OpTimeout and a server that never answers, cancelling the
// context must abort the in-flight attempt in milliseconds. Before the
// fix, a cancellation racing SetDeadline could be overwritten and the
// attempt rode out the full OpTimeout.
func TestCancelAbortsStalledAttempt(t *testing.T) {
	addr := stallListener(t)
	cl, err := NewClient(ClientConfig{
		Addr:      addr,
		OpTimeout: 30 * time.Second,
		Retry:     RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = cl.Ping(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want well under OpTimeout", elapsed)
	}
}

// TestPoisonedConnNotPooled pins release's pooling guard: a connection
// whose cancellation poison has fired carries a past deadline and must be
// closed, never returned to the idle pool.
func TestPoisonedConnNotPooled(t *testing.T) {
	reg := metrics.NewRegistry()
	cl, err := NewClient(ClientConfig{Addr: "127.0.0.1:1", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	release := func(fired bool) net.Conn {
		a, b := net.Pipe()
		t.Cleanup(func() { b.Close() })
		// stop() reports whether it prevented the poison from running:
		// false means the poison already fired.
		cl.release(a, func() bool { return !fired })
		return a
	}

	clean := release(false)
	cl.mu.Lock()
	pooled := len(cl.idle) == 1 && cl.idle[0] == clean
	cl.mu.Unlock()
	if !pooled {
		t.Fatal("clean connection was not pooled")
	}

	poisoned := release(true)
	cl.mu.Lock()
	inPool := false
	for _, c := range cl.idle {
		if c == poisoned {
			inPool = true
		}
	}
	cl.mu.Unlock()
	if inPool {
		t.Fatal("poisoned connection was pooled")
	}
	// A closed pipe errors on write; proves release closed it.
	if _, err := poisoned.Write([]byte{0}); err == nil {
		t.Fatal("poisoned connection was not closed")
	}
	if got := reg.Counter("store_client_conns_poisoned_total").Value(); got != 1 {
		t.Fatalf("poisoned counter = %d, want 1", got)
	}
}

// TestServerMetricsEndToEnd drives one put/dup-put/get/stat/ping sequence
// and checks the server-side counters tell the same story.
func TestServerMetricsEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := newTestServer(t, ServerConfig{Metrics: reg})
	ccfg := fastClientCfg(srv.Addr(), nil)
	ccfg.Metrics = reg
	cl, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	_, _, blocks := testCode(t, 3)

	if err := cl.Put(ctx, blocks[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, blocks[0]); err != nil { // dedup
		t.Fatal(err)
	}
	if _, err := cl.GetObject(ctx, core.ZeroObject, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]uint64{
		`store_server_requests_total{op="put"}`:  2,
		`store_server_requests_total{op="get"}`:  1,
		`store_server_requests_total{op="stat"}`: 1,
		`store_server_requests_total{op="ping"}`: 1,
		"store_server_puts_stored_total":         1,
		"store_server_puts_deduped_total":        1,
		"store_client_ops_ok_total":              5,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("store_server_blocks").Value(); got != 1 {
		t.Errorf("store_server_blocks = %d, want 1", got)
	}
	if reg.Counter("store_server_frame_bytes_in_total").Value() == 0 ||
		reg.Counter("store_client_frame_bytes_out_total").Value() == 0 {
		t.Error("byte counters did not move")
	}
	// The whole story renders as valid Prometheus text.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidatePromText(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("prometheus output invalid: %v", err)
	}
}

// TestReplicatedMetricsPerReplica checks the labeled per-replica outcome
// counters against a fleet where one replica is down.
func TestReplicatedMetricsPerReplica(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := newTestServer(t, ServerConfig{})
	up := newTestClient(t, srv.Addr(), nil)
	down := newTestClient(t, "127.0.0.1:1", nil)
	repl, err := NewReplicated([]*Client{up, down}, 1, ReplicatedConfig{MinWrites: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, _, blocks := testCode(t, 1)
	if err := repl.Put(context.Background(), blocks[0]); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(`store_replica_put_ok_total{replica="0"}`).Value(); got != 1 {
		t.Errorf("replica 0 ok = %d, want 1", got)
	}
	if got := reg.Counter(`store_replica_put_errors_total{replica="1"}`).Value(); got != 1 {
		t.Errorf("replica 1 errors = %d, want 1", got)
	}
}

// TestConcurrentClientsShareRegistry hammers one registry from several
// clients at once — the data-race canary for the metrics seam (run under
// -race via the Makefile check target).
func TestConcurrentClientsShareRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := newTestServer(t, ServerConfig{Metrics: reg})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cfg := fastClientCfg(srv.Addr(), nil)
			cfg.Metrics = reg
			cfg.Seed = seed
			cl, err := NewClient(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			ctx := context.Background()
			for j := 0; j < 20; j++ {
				if err := cl.Ping(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if got := reg.Counter(`store_server_requests_total{op="ping"}`).Value(); got != 80 {
		t.Fatalf("pings = %d, want 80", got)
	}
}
