package main

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// front is the store front end a workload drives: a Replicated fleet or
// a Placed ring. The two differ only in how a collect names its object.
type front struct {
	put     func(context.Context, *core.CodedBlock) error
	collect func(ctx context.Context, obj core.ObjectID, maxLevel int) ([]*core.CodedBlock, error)
}

func replicatedFront(r *store.Replicated) front {
	return front{put: r.Put, collect: r.CollectObject}
}

func placedFront(p *store.Placed) front {
	return front{put: p.Put, collect: p.Collect}
}

// The wrappers below are the layer boundaries of the trace: each public
// call the driver makes into the program runs under a child span of the
// operation that made it. In the untraced pass the spans are inert.

// storePut stores one block through the front end.
func (p *pass) storePut(ctx context.Context, f front, parent spanRef, b *core.CodedBlock) error {
	done := func() {}
	if parent.t != nil {
		// The engine decorator sees (object, wire); hashing the same
		// bytes here lets it file its span under this one.
		if wire, err := b.MarshalBinary(); err == nil {
			sp := parent.child("store.put")
			release := sp.expectPut(uint64(b.Object), wireHash(wire))
			done = func() { release(); sp.end(b.Level) }
		}
	}
	err := f.put(ctx, b)
	done()
	p.frontOps.Add(1)
	if err == nil {
		p.ackedPayload.Add(payloadBytes(b))
	}
	return err
}

// storeCollect fetches one object's blocks up to maxLevel.
func (p *pass) storeCollect(ctx context.Context, f front, parent spanRef, obj core.ObjectID, maxLevel int) ([]*core.CodedBlock, error) {
	sp := parent.child("store.collect")
	release := sp.expectGet(uint64(obj))
	blocks, err := f.collect(ctx, obj, maxLevel)
	release()
	sp.end(len(blocks))
	p.frontOps.Add(1)
	p.collects.Add(1)
	p.collectBlocks.Add(int64(len(blocks)))
	return blocks, err
}

// encode produces one coded block per entry of levels.
func (p *pass) encode(parent spanRef, o *object, rng *rand.Rand, levels ...int) ([]*core.CodedBlock, error) {
	sp := parent.child("core.encode")
	out := make([]*core.CodedBlock, 0, len(levels))
	for _, lvl := range levels {
		b, err := o.encode(rng, lvl)
		if err != nil {
			sp.end(len(out))
			return nil, err
		}
		out = append(out, b)
	}
	sp.end(len(out))
	return out, nil
}

// decode absorbs blocks until the first `levels` levels decode (all of
// them when levels <= 0).
func (p *pass) decode(parent spanRef, g geometry, blocks []*core.CodedBlock, levels int) (*core.Decoder, int, error) {
	sp := parent.child("core.decode")
	dec, consumed, err := g.decode(blocks, levels)
	sp.end(consumed)
	if err == nil && dec.Complete() {
		p.overhead.add(float64(consumed) / float64(g.n))
	}
	return dec, consumed, err
}

// recoverObject is the read side every workload shares: one operation
// that collects o's blocks up to maxLevel (all levels when negative),
// decodes, and checks the decoded prefix bit-exact against the
// originals. It fails unless at least `need` levels decode. Latencies
// run from `from` — the due time in an open loop, the call time in a
// closed one: collectMs takes the time until the blocks arrived,
// totalMs the time until they were decoded; either may be nil. It
// returns the levels decoded and the blocks collected.
func (p *pass) recoverObject(ctx context.Context, f front, g geometry, o *object, root string, maxLevel, need int, from time.Time, collectMs, totalMs *samples) (int, []*core.CodedBlock) {
	sp := p.in.tracer().root(root, p.opID())
	defer func() { sp.end(0) }()
	p.attempted.Add(1)
	blocks, err := p.storeCollect(ctx, f, sp, o.id, maxLevel)
	collectMs.addSince(from)
	if err != nil {
		p.fail("%s %s: collect: %v", root, o.id, err)
		return 0, nil
	}
	dec, _, err := p.decode(sp, g, blocks, maxLevel+1)
	totalMs.addSince(from)
	if err != nil {
		p.fail("%s %s: decode: %v", root, o.id, err)
		return 0, blocks
	}
	levels, err := o.checkPrefix(g, dec)
	if err != nil {
		p.fail("%s: %v", root, err)
	} else if levels < need {
		p.fail("%s %s: %d levels decoded from %d blocks, want %d", root, o.id, levels, len(blocks), need)
	}
	return levels, blocks
}

// putOp is one open-loop style put: encode one coded block of o at the
// given level and store it, as one op.put timed from `from`. It returns
// the stored block's wire encoding, nil when the operation failed.
func (p *pass) putOp(ctx context.Context, f front, o *object, rng *rand.Rand, level int, from time.Time, putMs *samples) []byte {
	root := p.in.tracer().root("op.put", p.opID())
	blocks, err := p.encode(root, o, rng, level)
	if !p.check("put: encode", err) {
		root.end(0)
		return nil
	}
	err = p.storePut(ctx, f, root, blocks[0])
	putMs.addSince(from)
	root.end(level)
	if !p.check("put", err) {
		return nil
	}
	wire, _ := blocks[0].MarshalBinary() // it marshaled on its way to the wire
	return wire
}

// publishObject is one op.publish: build the object's encoder, encode
// factor·N coded blocks in a level pattern, and put each. putMs takes
// every block's put, publishMs the whole. It returns the object and the
// coded payload bytes acked.
func (p *pass) publishObject(ctx context.Context, f front, g geometry, id core.ObjectID, sources [][]byte, rng *rand.Rand, factor float64, putMs, publishMs *samples) (*object, int64, error) {
	root := p.in.tracer().root("op.publish", p.opID())
	t0 := time.Now()
	o, err := g.newObject(id, sources)
	if err != nil {
		return nil, 0, err
	}
	blocks, err := p.encode(root, o, rng, g.pattern(rng, factor)...)
	if !p.check("publish: encode", err) {
		root.end(0)
		return o, 0, nil
	}
	var user int64
	for _, b := range blocks {
		t := time.Now()
		if p.check("publish: put", p.storePut(ctx, f, root, b)) {
			putMs.addSince(t)
			user += payloadBytes(b)
		}
	}
	publishMs.addSince(t0)
	root.end(len(blocks))
	return o, user, nil
}
