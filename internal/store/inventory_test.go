package store

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestStatsPerLevelBytes pins the inventory tallies: per-level counts
// and wire bytes, carried through the stat frame end to end.
func TestStatsPerLevelBytes(t *testing.T) {
	srv := newTestServer(t, ServerConfig{})
	cl := newTestClient(t, srv.Addr(), nil)
	ctx := context.Background()
	_, _, blocks := testCode(t, 12)
	wantCount := map[int]int{}
	wantBytes := map[int]int64{}
	var total int64
	for _, b := range blocks {
		if err := cl.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wantCount[b.Level]++
		wantBytes[b.Level] += int64(len(data))
		total += int64(len(data))
	}
	st, err := cl.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != len(blocks) || st.Bytes != total {
		t.Fatalf("stats = %d blocks / %d bytes, want %d / %d", st.Blocks, st.Bytes, len(blocks), total)
	}
	if len(st.PerLevel) != len(wantCount) {
		t.Fatalf("%d per-level entries, want %d", len(st.PerLevel), len(wantCount))
	}
	for _, lc := range st.PerLevel {
		if lc.Count != wantCount[lc.Level] || lc.Bytes != wantBytes[lc.Level] {
			t.Fatalf("level %d: %d blocks / %d bytes, want %d / %d",
				lc.Level, lc.Count, lc.Bytes, wantCount[lc.Level], wantBytes[lc.Level])
		}
	}
}

// statsV1Body is a counts-only stat body as daemons from before per-level
// byte tallies sent it: uint32 blocks | uint16 n | n x (level, count).
func statsV1Body() []byte {
	b := binary.BigEndian.AppendUint32(nil, 7)
	b = binary.BigEndian.AppendUint16(b, 2)
	b = binary.BigEndian.AppendUint16(b, 0)
	b = binary.BigEndian.AppendUint32(b, 4)
	b = binary.BigEndian.AppendUint16(b, 2)
	return binary.BigEndian.AppendUint32(b, 3)
}

// statsV2Body is a per-object-less stat body: the current layout under
// version byte 2, ending after the aggregate level list.
func statsV2Body() []byte {
	b := binary.BigEndian.AppendUint32(nil, 1)
	b = binary.BigEndian.AppendUint16(b, 0xFFFF)
	b = append(b, 2)
	b = binary.BigEndian.AppendUint64(b, 10)
	b = binary.BigEndian.AppendUint16(b, 1)
	b = binary.BigEndian.AppendUint16(b, 0)
	b = binary.BigEndian.AppendUint32(b, 1)
	return binary.BigEndian.AppendUint64(b, 10)
}

// TestStatsWireBackwardCompatible pins where stat-body compatibility
// ends: the older generations — v1 counts-only, v2 without objects —
// and truncations of them are corrupt frames, never a silently partial
// snapshot or a panic.
func TestStatsWireBackwardCompatible(t *testing.T) {
	v1, v2 := statsV1Body(), statsV2Body()
	for name, body := range map[string][]byte{
		"v1 body":      v1,
		"v2 body":      v2,
		"truncated v1": v1[:8],
		"truncated v2": v2[:10],
	} {
		if _, err := decodeStats(body); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err = %v, want ErrCorruptFrame", name, err)
		}
	}
}

// TestStatsV3PerObjectRoundTrip pins the one stat body: snapshots with
// and without per-object sections round-trip exactly, and truncations
// and out-of-order entries are corrupt frames.
func TestStatsV3PerObjectRoundTrip(t *testing.T) {
	keyed := Stats{
		Blocks: 9,
		Bytes:  1200,
		PerLevel: []LevelCount{
			{Level: 0, Count: 5, Bytes: 700},
			{Level: 1, Count: 4, Bytes: 500},
		},
		PerObject: []ObjectStats{
			{Object: core.ZeroObject, Blocks: 3, Bytes: 400,
				PerLevel: []LevelCount{{Level: 0, Count: 3, Bytes: 400}}},
			{Object: core.NamedObject("alpha"), Blocks: 6, Bytes: 800,
				PerLevel: []LevelCount{
					{Level: 0, Count: 2, Bytes: 300},
					{Level: 1, Count: 4, Bytes: 500},
				}},
		},
	}
	keyedBody, err := encodeStats(keyed)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Stats{
		keyed,
		{Blocks: 1, Bytes: 10, PerLevel: []LevelCount{{Level: 0, Count: 1, Bytes: 10}}}, // no PerObject
		{}, // an empty node
	} {
		body, err := encodeStats(st)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeStats(body)
		if err != nil {
			t.Fatalf("%+v: %v", st, err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, st)
		}
	}

	swapped := append([]byte(nil), keyedBody...)
	copy(swapped[17:31], keyedBody[31:45]) // aggregate levels 1, 1
	for name, body := range map[string][]byte{
		"truncated header": keyedBody[:10],
		"truncated levels": keyedBody[:20],
		"no object count":  keyedBody[:45],
		"truncated object": keyedBody[:len(keyedBody)-1],
		"trailing byte":    append(append([]byte(nil), keyedBody...), 0),
		"repeated level":   swapped,
	} {
		if _, err := decodeStats(body); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err = %v, want ErrCorruptFrame", name, err)
		}
	}
}

// TestCollectKeepsRecombinedBlocks pins the dedup boundary the repair
// daemon relies on: Collect dedups byte-identical replica copies, so a
// *fresh-coefficient* recombination is a new block (kept), while
// re-putting the identical regenerated block stays idempotent.
func TestCollectKeepsRecombinedBlocks(t *testing.T) {
	ctx := context.Background()
	levels, _, blocks := testCode(t, 10)
	servers := make([]*Server, 2)
	clients := make([]*Client, 2)
	for i := range servers {
		servers[i] = newTestServer(t, ServerConfig{})
		clients[i] = newTestClient(t, servers[i].Addr(), nil)
	}
	repl, err := NewReplicated(clients, levels.Count(), ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := repl.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	base, err := repl.CollectObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(blocks) {
		t.Fatalf("collected %d distinct blocks, want %d (replica copies must dedup)", len(base), len(blocks))
	}

	regen, err := core.Recombine(rand.New(rand.NewSource(77)), core.PLC, levels, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.Put(ctx, regen); err != nil {
		t.Fatal(err)
	}
	got, err := repl.CollectObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks)+1 {
		t.Fatalf("collected %d blocks after recombination, want %d (fresh coefficients must not dedup)",
			len(got), len(blocks)+1)
	}

	// The same regenerated block again: a retry, not new data.
	if err := repl.Put(ctx, regen.Clone()); err != nil {
		t.Fatal(err)
	}
	again, err := repl.CollectObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(got) {
		t.Fatalf("re-putting an identical regenerated block grew the set to %d (want %d)", len(again), len(got))
	}
}

// TestPutPreferringSteersPlacement pins that preferred replicas receive
// the copies when the replication factor does not cover the whole fleet.
func TestPutPreferringSteersPlacement(t *testing.T) {
	ctx := context.Background()
	levels, _, blocks := testCode(t, 6)
	servers := make([]*Server, 3)
	clients := make([]*Client, 3)
	for i := range servers {
		servers[i] = newTestServer(t, ServerConfig{})
		clients[i] = newTestClient(t, servers[i].Addr(), nil)
	}
	repl, err := NewReplicated(clients, levels.Count(), ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := repl.Levels(); got != levels.Count() {
		t.Fatalf("Levels() = %d, want %d", got, levels.Count())
	}
	var bulk *core.CodedBlock
	for _, b := range blocks {
		if b.Level == 1 {
			bulk = b
			break
		}
	}
	if bulk == nil {
		t.Fatal("test setup: no bulk-level block")
	}
	if rf := repl.ReplicasFor(1); rf != 2 {
		t.Fatalf("ReplicasFor(1) = %d, want 2", rf)
	}
	// Duplicate and out-of-range preferences must be tolerated.
	landed, err := repl.PutAllPreferring(ctx, []*core.CodedBlock{bulk}, [][]int{{2, 2, -1, 9, 1}})
	if err != nil || !landed[0] {
		t.Fatalf("landed %v: %v", landed, err)
	}
	if n := servers[0].Len(); n != 0 {
		t.Fatalf("non-preferred replica 0 holds %d blocks, want 0", n)
	}
	for i := 1; i <= 2; i++ {
		if n := servers[i].Len(); n != 1 {
			t.Fatalf("preferred replica %d holds %d blocks, want 1", i, n)
		}
	}
}

// TestStatAllSurvivesDeadReplica pins the audit primitive: per-replica
// snapshots with per-replica errors, no all-or-nothing failure.
func TestStatAllSurvivesDeadReplica(t *testing.T) {
	ctx := context.Background()
	srv := newTestServer(t, ServerConfig{})
	alive := newTestClient(t, srv.Addr(), nil)
	deadCfg := fastClientCfg("127.0.0.1:1", nil)
	deadCfg.Retry.MaxAttempts = 1
	dead, err := NewClient(deadCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dead.Close() })
	repl, err := NewReplicated([]*Client{alive, dead}, 2, ReplicatedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, blocks := testCode(t, 3)
	for _, b := range blocks {
		if err := alive.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	stats, errs := repl.StatAll(ctx)
	if errs[0] != nil {
		t.Fatalf("reachable replica errored: %v", errs[0])
	}
	if stats[0].Blocks != len(blocks) {
		t.Fatalf("replica 0 reports %d blocks, want %d", stats[0].Blocks, len(blocks))
	}
	if errs[1] == nil {
		t.Fatal("unreachable replica reported no error")
	}
}
