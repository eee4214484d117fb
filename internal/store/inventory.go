package store

import (
	"sort"

	"repro/internal/core"
)

// Inventory tallies an engine's stored blocks per (object, level): the
// counts and wire bytes the stat op reports, which every repair audit
// reads to check that the important levels kept their copies. MemStore
// and diskstore.Store both keep their tallies in one, so the stat answer
// is assembled the same way for every engine. The zero value is empty
// and ready to use. An Inventory is not safe for concurrent use; its
// engine's lock guards it.
type Inventory struct {
	cells  map[objLevel]levelTally
	blocks int
	bytes  int64
}

// objLevel keys the per-object per-level inventory.
type objLevel struct {
	obj   core.ObjectID
	level int
}

// levelTally is one (object, level) cell of the inventory.
type levelTally struct {
	count int
	bytes int64 // wire bytes, coefficient vectors included
}

// Add counts one stored block of obj at level, n wire bytes long.
func (v *Inventory) Add(obj core.ObjectID, level, n int) {
	if v.cells == nil {
		v.cells = make(map[objLevel]levelTally)
	}
	k := objLevel{obj, level}
	t := v.cells[k]
	t.count++
	t.bytes += int64(n)
	v.cells[k] = t
	v.blocks++
	v.bytes += int64(n)
}

// Remove uncounts one block Add counted; a cell left empty is dropped.
func (v *Inventory) Remove(obj core.ObjectID, level, n int) {
	k := objLevel{obj, level}
	t := v.cells[k]
	t.count--
	t.bytes -= int64(n)
	if t.count <= 0 {
		delete(v.cells, k)
	} else {
		v.cells[k] = t
	}
	v.blocks--
	v.bytes -= int64(n)
}

// Blocks returns the number of blocks counted.
func (v *Inventory) Blocks() int { return v.blocks }

// Bytes returns the wire bytes counted.
func (v *Inventory) Bytes() int64 { return v.bytes }

// Stats assembles the snapshot in the stat encoding's order: the
// aggregate PerLevel sums over objects, and PerObject holds each
// object's own breakdown, both sorted ascending.
func (v *Inventory) Stats() Stats {
	st := Stats{Blocks: v.blocks, Bytes: v.bytes}
	agg := make(map[int]levelTally)
	perObj := make(map[core.ObjectID]map[int]levelTally)
	for k, t := range v.cells {
		a := agg[k.level]
		a.count += t.count
		a.bytes += t.bytes
		agg[k.level] = a
		po := perObj[k.obj]
		if po == nil {
			po = make(map[int]levelTally)
			perObj[k.obj] = po
		}
		po[k.level] = t
	}
	st.PerLevel = levelCounts(agg)
	for obj, po := range perObj {
		os := ObjectStats{Object: obj, PerLevel: levelCounts(po)}
		for _, lc := range os.PerLevel {
			os.Blocks += lc.Count
			os.Bytes += lc.Bytes
		}
		st.PerObject = append(st.PerObject, os)
	}
	sort.Slice(st.PerObject, func(i, j int) bool {
		return st.PerObject[i].Object < st.PerObject[j].Object
	})
	return st
}

// levelCounts flattens a per-level tally map, sorted ascending by level.
func levelCounts(perLevel map[int]levelTally) []LevelCount {
	out := make([]LevelCount, 0, len(perLevel))
	for lvl, t := range perLevel {
		out = append(out, LevelCount{Level: lvl, Count: t.count, Bytes: t.bytes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
}
