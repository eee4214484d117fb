package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from outside the program under test: around each public call the
// driver makes, and by the BlockStore decorator under each server.
type span struct {
	Name string `json:"name"`
	// Op is the id of the operation (root span) the span belongs to;
	// 0 when an engine span could not be matched to one.
	Op     uint64 `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the span's work count where it has one: blocks encoded,
	// blocks absorbed, the level of a put.
	N int `json:"n,omitempty"`
}

// tracer holds every span of one traced pass in memory. A nil tracer is
// the untraced pass: every method is a no-op and spanRef's zero value is
// inert, so the driver code is the same in both passes.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// puts and gets map what an engine call can see — the (object, wire
	// hash) of a put, the object of a get — to the driver span that
	// caused it.
	puts map[putKey]spanRef
	gets map[uint64]getReg
}

type putKey struct{ obj, hash uint64 }

// getReg is the driver spans currently collecting one object. Engine
// gets can be filed only while exactly one is: overlapping collects of
// one object look the same from below.
type getReg struct {
	r      spanRef
	open   int
	shared bool // two overlapped since the object was last idle
}

// spanRef names an open span.
type spanRef struct {
	t  *tracer
	id int
	op uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), puts: make(map[putKey]spanRef), gets: make(map[uint64]getReg)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root opens an operation's root span.
func (t *tracer) root(name string, op uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.open(name, op, -1)
}

func (t *tracer) open(name string, op uint64, parent int) spanRef {
	start := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: start, End: start})
	t.mu.Unlock()
	return spanRef{t: t, id: id, op: op}
}

// child opens a span under r.
func (r spanRef) child(name string) spanRef {
	if r.t == nil {
		return spanRef{}
	}
	return r.t.open(name, r.op, r.id)
}

// end closes the span; n is its work count (0 for none).
func (r spanRef) end(n int) {
	if r.t == nil {
		return
	}
	end := r.t.now()
	r.t.mu.Lock()
	r.t.spans[r.id].End = end
	r.t.spans[r.id].N = n
	r.t.mu.Unlock()
}

// expectPut tells the tracer that engine puts of this (object, wire)
// pair belong under r, until the returned func is called.
func (r spanRef) expectPut(obj, hash uint64) func() {
	if r.t == nil {
		return func() {}
	}
	k := putKey{obj, hash}
	r.t.mu.Lock()
	r.t.puts[k] = r
	r.t.mu.Unlock()
	return func() {
		r.t.mu.Lock()
		delete(r.t.puts, k)
		r.t.mu.Unlock()
	}
}

// expectGet does the same for engine gets of one object. While two
// collects of one object overlap, their engine spans fall back to the
// window.
func (r spanRef) expectGet(obj uint64) func() {
	if r.t == nil {
		return func() {}
	}
	r.t.mu.Lock()
	reg := r.t.gets[obj]
	reg.r, reg.open, reg.shared = r, reg.open+1, reg.shared || reg.open > 0
	r.t.gets[obj] = reg
	r.t.mu.Unlock()
	return func() {
		r.t.mu.Lock()
		reg := r.t.gets[obj]
		if reg.open--; reg.open == 0 {
			delete(r.t.gets, obj)
		} else {
			r.t.gets[obj] = reg
		}
		r.t.mu.Unlock()
	}
}

// engineSpan records a finished engine call, under the driver span that
// caused it when the tracer can tell.
func (t *tracer) engineSpan(name string, parent spanRef, found bool, start, end time.Time, n int) {
	s := span{Name: name, Parent: -1, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n}
	if found {
		s.Op, s.Parent = parent.op, parent.id
	}
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) putParent(obj, hash uint64) (spanRef, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.puts[putKey{obj, hash}]
	return r, ok
}

func (t *tracer) getParent(obj uint64) (spanRef, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	reg, ok := t.gets[obj]
	return reg.r, ok && !reg.shared
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover (children may overlap each other,
// as the per-replica fetches of one collect do).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := int64(0), s.Start
		for _, k := range iv {
			lo, end := k[0], k[1]
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerShare is one line of the trace summary: how much of a root
// span's median a layer's self time accounts for.
type layerShare struct {
	Root     string  `json:"root"`
	Layer    string  `json:"layer"`
	Ops      int     `json:"ops"`
	RootP50  float64 `json:"root_p50_ms"`
	SelfP50  float64 `json:"self_p50_ms"`
	ShareP50 float64 `json:"share_of_root_p50"`
}

// summarize groups spans by operation and reports, per root span name,
// the median over operations of each layer's summed self time and its
// share of the root's median duration. The root's own self time is the
// driver's: verification, bookkeeping and waiting between calls.
func summarize(spans []span) []layerShare {
	self := selfTimes(spans)
	type opAcc struct {
		root string
		dur  int64
		by   map[string]int64
	}
	ops := make(map[uint64]*opAcc)
	for i, s := range spans {
		if s.Op == 0 {
			continue
		}
		a := ops[s.Op]
		if a == nil {
			a = &opAcc{by: make(map[string]int64)}
			ops[s.Op] = a
		}
		if s.Parent < 0 && strings.HasPrefix(s.Name, "op.") {
			a.root, a.dur = s.Name, s.End-s.Start
		}
		a.by[s.Name] += self[i]
	}
	type rootAcc struct {
		dur []float64
		by  map[string][]float64
	}
	roots := make(map[string]*rootAcc)
	for _, a := range ops {
		if a.root == "" {
			continue
		}
		r := roots[a.root]
		if r == nil {
			r = &rootAcc{by: make(map[string][]float64)}
			roots[a.root] = r
		}
		r.dur = append(r.dur, float64(a.dur)/1e6)
		for name, ns := range a.by {
			r.by[name] = append(r.by[name], float64(ns)/1e6)
		}
	}
	var out []layerShare
	for root, r := range roots {
		rootP50 := median(r.dur)
		for name, v := range r.by {
			// An op that never entered a layer spent zero there.
			for len(v) < len(r.dur) {
				v = append(v, 0)
			}
			ls := layerShare{Root: root, Layer: name, Ops: len(r.dur), RootP50: rootP50, SelfP50: median(v)}
			if rootP50 > 0 {
				ls.ShareP50 = ls.SelfP50 / rootP50
			}
			out = append(out, ls)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Root != out[j].Root {
			return out[i].Root < out[j].Root
		}
		if out[i].SelfP50 != out[j].SelfP50 {
			return out[i].SelfP50 > out[j].SelfP50
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}
