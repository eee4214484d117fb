// Package metrics is the dependency-free observability seam of the
// reproduction: atomic counters, gauges and log-linear histograms behind
// a named registry, with Prometheus-text, JSON and human-readable
// renderings plus an HTTP handler (see http.go).
//
// The design goals, in order:
//
//  1. Zero cost when unused. Every metric type is nil-safe: calling Add,
//     Set or Observe on a nil pointer is a no-op, and looking a metric up
//     in a nil *Registry returns nil. Library layers therefore thread a
//     possibly-nil registry through their configs and instrument
//     unconditionally; users who pass no registry pay a nil check.
//  2. Allocation-free hot paths. Metrics are resolved by name once, at
//     construction time, into plain struct fields; recording is a single
//     atomic RMW (plus a bucket index computation for histograms). The
//     registry map is only touched at setup and at snapshot time.
//  3. No dependencies. The Prometheus exposition is hand-rolled text
//     format (counters, gauges, and summaries with pre-computed
//     quantiles), validated by the promtext.go parser in tests.
//
// Metric names follow Prometheus conventions (snake_case, unit-suffixed,
// `_total` for counters) and may carry a fixed label set inline:
// `store_replica_put_errors_total{node="10.0.0.2:7071"}`. Labels are
// part of the registry key — there is no dynamic label indexing, which
// keeps lookup out of hot paths by construction.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (which may be negative). No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one. No-op on a nil receiver.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one. No-op on a nil receiver.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is fully usable as
// a no-op: every lookup returns nil, every snapshot is empty.
//
// Lookups are idempotent — asking for the same name twice returns the
// same metric — so independent components sharing a registry naturally
// aggregate into shared series. Registering one name as two different
// kinds is a programming error and panics at setup time.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, kindCounter)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, kindGauge)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil (a no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, kindHistogram)
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// checkName panics on malformed names and cross-kind collisions — both
// are programming errors caught by any test that touches the metric, and
// panicking at setup beats corrupting the exposition format at scrape
// time. Must be called with r.mu held; asKind is the caller's own kind
// (same-kind re-registration is the idempotent lookup path).
func (r *Registry) checkName(name string, asKind metricKind) {
	if err := ValidateMetricName(name); err != nil {
		panic(fmt.Sprintf("metrics: %v", err))
	}
	if _, ok := r.counters[name]; ok && asKind != kindCounter {
		panic(fmt.Sprintf("metrics: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && asKind != kindGauge {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && asKind != kindHistogram {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram", name))
	}
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name string `json:"name"`
	HistogramSnapshot
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name within each kind — the JSON document `prlcd metrics` renders.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot captures every metric's current value. Safe to call
// concurrently with recording; individual values are atomically read but
// the snapshot as a whole is not a consistent cut. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for name, c := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range hists {
		s.Histograms = append(s.Histograms, HistogramValue{Name: name, HistogramSnapshot: h.Snapshot()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// CounterTotal sums the counter named base and its labeled variants
// `base{...}` — `store_server_requests_total` totals the per-op series.
// A longer name (`base_foo`) does not ride along, and a counter that
// never registered reads as zero.
func (s Snapshot) CounterTotal(base string) uint64 {
	var total uint64
	for _, c := range s.Counters {
		if c.Name == base || strings.HasPrefix(c.Name, base+"{") {
			total += c.Value
		}
	}
	return total
}
