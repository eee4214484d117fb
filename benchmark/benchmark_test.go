package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the catalog %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalog %q", i, w.Name, workloads[i].Name)
		}
	}
	seen := map[string]bool{}
	var gated []metricDef
	wantLayers := map[string]string{}
	for _, def := range endToEnd {
		if def.Bound != unbounded && (def.Bound < 0 || def.Bound > 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", def.Name, def.Bound)
		}
		if def.gated() {
			gated = append(gated, def)
		} else {
			wantLayers[def.Name] = def.Unit
		}
	}
	for _, def := range perLayer {
		wantLayers[def.Name] = def.Unit
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json gates %d metrics, the catalog has %d measured on every workload", len(doc.EndToEnd), len(gated))
	}
	for i, m := range doc.EndToEnd {
		d := gated[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the catalog %+v", i, m, d)
		}
		seen[m.Name] = true
	}
	if len(doc.PerLayer) != len(wantLayers) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the catalog %d", len(doc.PerLayer), len(wantLayers))
	}
	for _, m := range doc.PerLayer {
		if unit, ok := wantLayers[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %s (%s) is not in the catalog with that unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
}

// TestWorkloadsEmitEveryMetric runs each workload under the driver
// contract at a one-second scale, untraced and traced, and checks the
// output names exactly the metrics BENCHMARK.json lists, that no
// operation failed, and that the trace is well formed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range doc.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		units[true][m.Name] = m.Unit
	}
	// A rate the race detector's slowdown cannot turn into overload.
	o := options{seed: 7, seconds: 1, dataDir: t.TempDir(), rate: 100}
	for i := range workloads {
		wl := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := driverRun(wl, o, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", wl.Name, traced, res.Correct, res.Attempted, res.Failed, res.reports[len(res.reports)-1].Failures)
			}
			want := units[traced]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s: printed %+v (present %v), want unit %q", wl.Name, traced, name, m, ok, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
					t.Errorf("%s traced=%v: metric %s = %v", wl.Name, traced, name, m.Value)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, name)
				}
			}
			if traced {
				checkSpans(t, wl.Name, res.spans)
				line, err := json.Marshal(res)
				if err != nil || len(line) == 0 {
					t.Errorf("%s: result does not marshal: %v", wl.Name, err)
				}
			}
		}
	}
}

// checkSpans asserts every span lies inside its parent, carries its
// parent's operation id, and has a self time that is not negative.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: traced pass recorded no spans", workload)
	}
	names := map[string]bool{}
	for i, s := range spans {
		names[s.Name] = true
		if s.ID != i {
			t.Fatalf("%s: span %d has id %d", workload, i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %s ends before it starts", workload, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		parent := spans[s.Parent]
		if s.Start < parent.Start || s.End > parent.End {
			t.Errorf("%s: span %s [%d, %d] leaves its parent %s [%d, %d]", workload, s.Name, s.Start, s.End, parent.Name, parent.Start, parent.End)
		}
		if s.Op != parent.Op {
			t.Errorf("%s: span %s has op %d, its parent %s op %d", workload, s.Name, s.Op, parent.Name, parent.Op)
		}
	}
	for i, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("%s: span %s has self time %d ns", workload, spans[i].Name, self)
		}
	}
	want := map[string][]string{
		wIngest:  {"op.put", "op.reopen", "op.recover_l0", "op.recover", "engine.put", "engine.get"},
		wPublish: {"op.publish", "op.recover_l0", "op.recover", "core.encode", "store.put", "store.collect", "core.decode"},
		wMixed:   {"op.put", "op.get"},
		wHeal:    {"op.publish", "op.recover", "op.heal", "op.migrate", "repair.audit", "repair.run_once", "mover.run_once"},
	}
	for _, name := range want[workload] {
		if !names[name] {
			t.Errorf("%s: no span %s", workload, name)
		}
	}
}

// TestOpenLoopTimesFromDueTime stalls a fake target on its first
// operation and checks that the operations queued behind the stall carry
// it in their latency, and that the generator's lateness is reported.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	p := newPass(options{seed: 1}, time.Second, nil, 1)
	p.inflight = 1
	plan := make([]plannedOp, 20)
	for i := range plan {
		plan[i].Due = time.Duration(i) * time.Millisecond
	}
	var mu sync.Mutex
	latency := make(map[time.Duration]time.Duration)
	p.runOpenLoop(plan, func(_ int, op plannedOp, due time.Time) {
		if op.Due == 0 {
			time.Sleep(stall) // the target hangs on the first operation
		}
		mu.Lock()
		latency[op.Due] = time.Since(due)
		mu.Unlock()
	}, func(op plannedOp) { t.Errorf("operation due at %v was dropped", op.Due) })

	for _, op := range plan {
		// Counted from the dequeue, every operation after the first would
		// take microseconds; counted from its due time it waited out the
		// rest of the stall.
		if want := stall - op.Due; latency[op.Due] < want {
			t.Errorf("operation due at %v: latency %v, want at least %v", op.Due, latency[op.Due], want)
		}
	}
	lag, _ := tailQuantile(p.lag.sorted(), 0.99)
	if least := ms(stall - plan[len(plan)-1].Due); lag < least {
		t.Errorf("sched lag reported as %.1f ms, want at least %.1f ms", lag, least)
	}
	if p.lag.n() != len(plan) || p.dropped.Load() != 0 {
		t.Errorf("lag samples %d, dropped %d; want %d, 0", p.lag.n(), p.dropped.Load(), len(plan))
	}
}

// TestSameSeedSameInputs: the op plans are pure functions of the seed,
// and so are the two end-to-end numbers that do not depend on the clock.
func TestSameSeedSameInputs(t *testing.T) {
	pass := func(seed int64) *pass {
		return newPass(options{seed: seed, rate: 100, dataDir: t.TempDir()}, time.Second, nil, 1)
	}
	gi, gm := newGeometry(64, 1024, 4), newGeometry(16, 1024, 4)
	a, _ := ingestPlan(pass(5), gi)
	b, _ := ingestPlan(pass(5), gi)
	c, _ := ingestPlan(pass(6), gi)
	if len(a) == 0 || !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Errorf("ingest plan: %d ops; same seed equal %v, other seed equal %v", len(a), reflect.DeepEqual(a, b), reflect.DeepEqual(a, c))
	}
	if a, b := mixedPlan(pass(5), gm), mixedPlan(pass(5), gm); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("mixed plan differs between two draws of one seed")
	}

	// ingest-disk stores what its plan says, byte for byte.
	var ratios []float64
	for i := 0; i < 2; i++ {
		p := pass(5)
		if err := runIngest(p); err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, p.e2e["stored_bytes_per_user_byte"].Value)
	}
	if ratios[0] != ratios[1] || ratios[0] == 0 {
		t.Errorf("ingest-disk stored_bytes_per_user_byte: %v then %v for one seed", ratios[0], ratios[1])
	}

	// heal-after-loss fits as many cycles as the clock allows; the cycles
	// both runs completed must agree exactly.
	var runs []*healTally
	for i := 0; i < 2; i++ {
		p := pass(5)
		if err := runHeal(p); err != nil {
			t.Fatal(err)
		}
		if p.failed.Load() != 0 {
			t.Fatalf("heal-after-loss: %v", p.failures)
		}
		runs = append(runs, &p.heal)
	}
	n := len(runs[0].cycleLevels)
	if m := len(runs[1].cycleLevels); m < n {
		n = m
	}
	if n == 0 || !reflect.DeepEqual(runs[0].cycleLevels[:n], runs[1].cycleLevels[:n]) {
		t.Errorf("levels after loss per cycle: %v then %v", runs[0].cycleLevels[:n], runs[1].cycleLevels[:n])
	}
	if !reflect.DeepEqual(runs[0].cycleStored[:n], runs[1].cycleStored[:n]) {
		t.Errorf("stored bytes per user byte per cycle: %v then %v", runs[0].cycleStored[:n], runs[1].cycleStored[:n])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := &metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		new  []float64
		want string
	}{
		{[]float64{100, 100, 101, 99, 100}, "unchanged"},
		{[]float64{120, 121, 119, 120, 122}, "worse"},
		{[]float64{80, 81, 79, 80, 82}, "better"},
		{[]float64{60, 100, 140, 90, 130}, "unresolved"},
	} {
		if got := verdict(lower, base, tc.new); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.new, got, tc.want)
		}
	}
	higher := &metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(higher, base, []float64{80, 81, 79, 80, 82}); got != "worse" {
		t.Errorf("a throughput that fell by a fifth judged %s", got)
	}
}
