package repair

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// goldenRepairInventory is the SHA-256 over every replica's sorted wire
// inventory after the seeded heal below, recorded at the commit before
// repair and mover were folded onto one loop and one fill. Two runs of
// one binary agreeing is TestChurnAcceptance's job; this constant makes
// two *commits* agree: same draws, same order, same blocks placed.
const goldenRepairInventory = "1de65f4d1f230656c9995f8127cafc2e46fd417a922627e75e404e220c804e19"

// replicaInventory reads one replica's every block, one object at a
// time: a read names one object, so the whole inventory is a walk over
// the objects its Stats().PerObject lists.
func replicaInventory(ctx context.Context, cl *store.Client) ([]*core.CodedBlock, error) {
	st, err := cl.Stat(ctx)
	if err != nil {
		return nil, err
	}
	var out []*core.CodedBlock
	for _, os := range st.PerObject {
		blocks, err := cl.GetObject(ctx, os.Object, -1)
		if err != nil {
			return nil, err
		}
		out = append(out, blocks...)
	}
	return out, nil
}

// inventoryHash digests each replica's blocks in marshaled form, sorted
// per replica so server-side iteration order does not leak in.
func inventoryHash(t *testing.T, f *fleet) string {
	t.Helper()
	h := sha256.New()
	for i, cl := range f.repl.Clients() {
		blocks, err := replicaInventory(context.Background(), cl)
		if err != nil {
			t.Fatalf("replica %d inventory: %v", i, err)
		}
		wire := make([][]byte, len(blocks))
		for j, b := range blocks {
			if wire[j], err = b.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(wire, func(a, b int) bool { return bytes.Compare(wire[a], wire[b]) < 0 })
		h.Write([]byte{byte(i), byte(len(wire)), byte(len(wire) >> 8)})
		for _, w := range wire {
			h.Write(w)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenRepairInventory pins what a seeded repair history places:
// put, wipe one replica, RunOnce until healthy, hash the fleet.
func TestGoldenRepairInventory(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 61, 24)
	f := newFleet(t, 3, levels.Count())
	cfg := f.seed(levels, blocks, targets)
	cfg.BlockBudget = 3 // several truncated rounds: the generator must carry across them
	d, err := New(f.repl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.kill(2)
	f.heal(2)
	ctx := context.Background()
	for rounds := 0; ; rounds++ {
		if rounds > 16 {
			t.Fatalf("fleet not healthy after %d rounds", rounds)
		}
		rep, err := d.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Audit.Healthy() {
			break
		}
		if rep.Regenerated == 0 {
			t.Fatalf("round %d regenerated nothing against deficit %d", rounds, rep.Audit.TotalDeficit())
		}
	}
	if got := inventoryHash(t, f); got != goldenRepairInventory {
		t.Fatalf("seeded repair placed different blocks than the recorded history:\n got %s\nwant %s", got, goldenRepairInventory)
	}
}
