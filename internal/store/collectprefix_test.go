package store

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// downDialer refuses every dial: an owner that is down.
type downDialer struct{}

func (downDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	return nil, errors.New("owner down")
}

// prefixCase is one object of the soundness property: a code, and the
// coded blocks its owners were handed.
type prefixCase struct {
	scheme core.Scheme
	levels *core.Levels
	blocks []*core.CodedBlock
}

// newPrefixCase draws a PLC, SLC or RLC code over N = 16 (dense frames)
// or N = 64 (seed frames) in 1–4 levels, and between N/2 and 2N coded
// blocks of obj: encoder blocks, some sparse ones, and recombinations of
// blocks already drawn.
func newPrefixCase(t *testing.T, rng *rand.Rand, obj core.ObjectID) prefixCase {
	t.Helper()
	schemes := []core.Scheme{core.PLC, core.SLC, core.RLC}
	c := prefixCase{scheme: schemes[rng.Intn(len(schemes))]}
	n := 16
	if rng.Intn(2) == 0 {
		n = 64
	}
	cuts := rng.Perm(n - 1)[:rng.Intn(4)] // inner level boundaries, less one
	sort.Ints(cuts)
	var levelSizes []int
	prev := 0
	for _, cut := range append(cuts, n-1) {
		levelSizes = append(levelSizes, cut+1-prev)
		prev = cut + 1
	}
	levels, err := core.NewLevels(levelSizes...)
	if err != nil {
		t.Fatal(err)
	}
	c.levels = levels
	sources := make([][]byte, n)
	for i := range sources {
		sources[i] = make([]byte, 4)
		rng.Read(sources[i])
	}
	dense, err := core.NewEncoder(c.scheme, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := core.NewEncoder(c.scheme, levels, sources, core.WithSparsity(core.LogSparsity(n)))
	if err != nil {
		t.Fatal(err)
	}
	sparseShare := []float64{0, 0, 0.2, 1}[rng.Intn(4)]
	count := n/2 + rng.Intn(3*n/2+1)
	for len(c.blocks) < count {
		level := rng.Intn(levels.Count())
		var b *core.CodedBlock
		switch {
		case len(c.blocks) > 2 && rng.Intn(6) == 0:
			b = recombineSome(t, rng, c, level)
		case rng.Float64() < sparseShare:
			b, err = sparse.Encode(rng, level)
		default:
			b, err = dense.Encode(rng, level)
		}
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			continue
		}
		b.Object = obj
		c.blocks = append(c.blocks, b)
	}
	return c
}

// recombineSome recombines two to four drawn blocks the scheme lets share
// an output of the given level, or returns nil when there are too few.
func recombineSome(t *testing.T, rng *rand.Rand, c prefixCase, level int) *core.CodedBlock {
	t.Helper()
	var pool []*core.CodedBlock
	for _, b := range c.blocks {
		if b.Level == level || (c.scheme != core.SLC && b.Level < level) {
			pool = append(pool, b)
		}
	}
	if len(pool) < 2 {
		return nil
	}
	k := 2 + rng.Intn(3)
	var in []*core.CodedBlock
	for _, i := range rng.Perm(len(pool))[:min(k, len(pool))] {
		in = append(in, pool[i])
	}
	out, err := core.Recombine(rng, c.scheme, c.levels, in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// decodedLevels is how many levels core.Decoder decodes from blocks.
func decodedLevels(t *testing.T, c prefixCase, blocks []*core.CodedBlock) int {
	t.Helper()
	dec, err := core.NewDecoder(c.scheme, c.levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := dec.Add(b); err != nil {
			t.Fatalf("decoder rejected a collected block: %v", err)
		}
	}
	return dec.DecodedLevels()
}

// TestBoundedCollectDecodesWhatExhaustiveDoes is the soundness property
// of the level-bounded read: over 1,000 seeded objects on 3–5 owners —
// some wiped, some short, some down, blocks placed in the rotating
// window or failed over past it — a read bounded at every level L
// decodes, under core.Decoder, exactly the levels the exhaustive read at
// L decodes, and fails exactly when it fails.
func TestBoundedCollectDecodesWhatExhaustiveDoes(t *testing.T) {
	const fleet, objects = 5, 1000
	ctx := context.Background()
	reg := metrics.NewRegistry()
	engines := make([]*MemStore, fleet)
	up := make([]*Client, fleet)
	down := make([]*Client, fleet)
	for i := range engines {
		engines[i] = NewMemStore(0)
		srv := newTestServer(t, ServerConfig{Blocks: engines[i]})
		up[i] = newTestClient(t, srv.Addr(), nil)
		cfg := fastClientCfg(srv.Addr(), downDialer{})
		cfg.Retry.MaxAttempts = 1
		cl, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		down[i] = cl
	}
	rng := rand.New(rand.NewSource(35))
	reads, stopped := 0, 0
	for o := 0; o < objects; o++ {
		obj := core.ObjectID(o + 1)
		c := newPrefixCase(t, rng, obj)
		n := 3 + rng.Intn(fleet-2)
		clients := append([]*Client(nil), up[:n]...)
		// Owner modes: 0 wiped, 1 short, 2 down, otherwise healthy.
		modes := make([]int, n)
		for i := range modes {
			if modes[i] = rng.Intn(12); modes[i] == 2 {
				clients[i] = down[i]
			}
		}
		repl, err := NewReplicated(clients, c.levels.Count(), ReplicatedConfig{Tolerance: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for k, b := range c.blocks {
			wire, err := b.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			rf := repl.ReplicasFor(b.Level)
			window := make([]int, rf)
			for j := range window {
				window[j] = (k + j) % n
			}
			if rf < n && rng.Intn(8) == 0 {
				window[rng.Intn(rf)] = (k + rf) % n // failed over past the window
			}
			for _, i := range window {
				if modes[i] == 0 || (modes[i] == 1 && rng.Intn(2) == 0) {
					continue
				}
				if _, err := engines[i].Put(obj, b.Level, wire); err != nil {
					t.Fatal(err)
				}
			}
		}
		for L := 0; L < c.levels.Count(); L++ {
			bounded, berr := repl.CollectObject(ctx, obj, L)
			all, aerr := repl.CollectAll(ctx, obj, L)
			if (berr != nil) != (aerr != nil) {
				t.Fatalf("object %d (%v %v, %d owners %v) level %d: bounded read error %v, exhaustive %v",
					o, c.scheme, c.levels.Sizes(), n, modes, L, berr, aerr)
			}
			if aerr != nil {
				continue
			}
			reads++
			if len(bounded) < len(all) {
				stopped++
			}
			if got, want := decodedLevels(t, c, bounded), decodedLevels(t, c, all); got != want {
				t.Fatalf("object %d (%v %v, %d owners %v) level %d: bounded read of %d blocks decodes %d levels, exhaustive read of %d decodes %d",
					o, c.scheme, c.levels.Sizes(), n, modes, L, len(bounded), got, len(all), want)
			}
		}
	}
	widened := reg.Counter("store_replicated_collect_widened_total").Value()
	t.Logf("%d bounded reads: %d stopped on fewer blocks, %d widened", reads, stopped, widened)
	if stopped == 0 || widened == 0 {
		t.Fatalf("%d reads stopped early and %d widened: the cases miss a branch", stopped, widened)
	}
}

// TestLevelZeroReadAsksOneOwner: level 0 sits on every owner, so a
// level-0 read of a healthy 3-owner shard sends exactly one get, and an
// all-level read asks the two owners any last-level block is on.
func TestLevelZeroReadAsksOneOwner(t *testing.T) {
	ctx := context.Background()
	levels, sources, blocks := testCode(t, 48)
	for _, tc := range []struct {
		maxLevel, owners int
	}{{0, 1}, {1, 2}} {
		reg := metrics.NewRegistry()
		servers := make([]*Server, 3)
		clients := make([]*Client, 3)
		for i := range clients {
			servers[i] = newTestServer(t, ServerConfig{Metrics: reg})
			clients[i] = newTestClient(t, servers[i].Addr(), nil)
		}
		repl, err := NewReplicated(clients, levels.Count(), ReplicatedConfig{Tolerance: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repl.PutAll(ctx, blocks); err != nil {
			t.Fatal(err)
		}
		gets := func() uint64 { return reg.Counter(`store_server_requests_total{op="get"}`).Value() }
		before := gets()
		got, err := repl.CollectObject(ctx, core.ZeroObject, tc.maxLevel)
		if err != nil {
			t.Fatal(err)
		}
		checkCriticalLevel(t, decodeAll(t, levels, got), levels, sources)
		if asked := reg.Counter("store_replicated_collect_owners_asked_total").Value(); asked != uint64(tc.owners) {
			t.Fatalf("level-%d read asked %d owners, want %d", tc.maxLevel, asked, tc.owners)
		}
		if widened := reg.Counter("store_replicated_collect_widened_total").Value(); widened != 0 {
			t.Fatalf("level-%d read of a healthy shard widened", tc.maxLevel)
		}
		if tc.owners == 1 {
			if sent := gets() - before; sent != 1 {
				t.Fatalf("level-0 read sent %d gets, want 1", sent)
			}
		}
	}
}
