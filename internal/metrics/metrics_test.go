package metrics

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_ns")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned non-nil metrics: %v %v %v", c, g, h)
	}
	// All recording paths must be no-ops, not panics.
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	g.Inc()
	g.Dec()
	h.Observe(42)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metrics recorded values")
	}
	if !r.Snapshot().Empty() {
		t.Fatal("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote prometheus output: %q", buf.String())
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	if again := r.Counter("reqs_total"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}
	g := r.Gauge("conns")
	g.Set(10)
	g.Add(-3)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestBadNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "9bad", "has space", "x{unclosed", `x{a=b}`, `x{a="b"`} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			r.Counter(name)
		}()
	}
	// Labeled names are legal.
	r.Counter(`x_total{replica="0"}`)
}

func TestHistogramBucketsRoundTrip(t *testing.T) {
	// Every sample must land in a bucket whose [lower, upper] range
	// contains it, across the full magnitude sweep.
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1 << 62} {
		i := bucketOf(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, i)
		}
		upper := bucketUpper(i)
		if uint64(upper) < v {
			t.Fatalf("bucketUpper(bucketOf(%d)) = %d < sample", v, upper)
		}
		if i > 0 && uint64(bucketUpper(i-1)) >= v {
			t.Fatalf("sample %d also fits bucket %d (upper %d)", v, i-1, bucketUpper(i-1))
		}
	}
	// Monotone uppers.
	last := int64(-1)
	for i := 0; i < histBuckets; i++ {
		u := bucketUpper(i)
		if u < last {
			t.Fatalf("bucketUpper not monotone at %d: %d < %d", i, u, last)
		}
		last = u
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	// 1..1000: p50 ≈ 500, p95 ≈ 950, p99 ≈ 990, within bucket width (12.5%).
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 500500 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	check := func(name string, got int64, want float64) {
		if float64(got) < want || float64(got) > want*1.15 {
			t.Errorf("%s = %d, want within [%v, %v]", name, got, want, want*1.15)
		}
	}
	check("p50", s.P50, 500)
	check("p95", s.P95, 950)
	check("p99", s.P99, 990)
	if s.Max < 1000 || s.Max > 1151 {
		t.Errorf("max = %d, want ~1000 (bucket upper)", s.Max)
	}
	if s.Mean != 500.5 {
		t.Errorf("mean = %v, want 500.5", s.Mean)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.P99 != 0 {
		t.Fatalf("negative sample snapshot: %+v", s)
	}
}

func TestSnapshotSortedAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("g").Set(-4)
	r.Histogram("h_ns").Observe(100)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_total" || s.Counters[1].Name != "b_total" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if len(back.Counters) != 2 || back.Gauges[0].Value != -4 || back.Histograms[0].Count != 1 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

func TestPrometheusOutputValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("store_server_requests_total").Add(17)
	r.Counter(`store_replica_put_errors_total{replica="0"}`).Add(1)
	r.Counter(`store_replica_put_errors_total{replica="1"}`).Add(2)
	r.Gauge("store_server_active_conns").Set(3)
	h := r.Histogram("store_client_op_ns")
	for i := 0; i < 100; i++ {
		h.Observe(int64(rand.Intn(1_000_000)))
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := ValidatePromText(strings.NewReader(text)); err != nil {
		t.Fatalf("own prometheus output does not validate: %v\n%s", err, text)
	}
	// Labeled variants share one TYPE header.
	if n := strings.Count(text, "# TYPE store_replica_put_errors_total counter"); n != 1 {
		t.Fatalf("TYPE header emitted %d times:\n%s", n, text)
	}
	for _, want := range []string{
		`store_client_op_ns{quantile="0.5"}`,
		"store_client_op_ns_sum",
		"store_client_op_ns_count 100",
		`store_replica_put_errors_total{replica="1"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestValidatePromTextRejectsGarbage(t *testing.T) {
	for _, doc := range []string{
		"",                         // no samples
		"foo",                      // no value
		"foo bar",                  // non-float value
		"9foo 1",                   // bad name
		"foo{a=b} 1",               // unquoted label
		"foo{a=\"b\" 1",            // unterminated label set
		"# TYPE foo banana\nfoo 1", // unknown type
	} {
		if err := ValidatePromText(strings.NewReader(doc)); err == nil {
			t.Errorf("ValidatePromText accepted %q", doc)
		}
	}
	good := "# HELP foo help text here\n# TYPE foo counter\nfoo 1\nbar{x=\"y\"} 2.5 1700000000\n"
	if err := ValidatePromText(strings.NewReader(good)); err != nil {
		t.Errorf("ValidatePromText rejected valid doc: %v", err)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Add(9)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := ValidatePromText(resp.Body); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}

	jresp, err := srv.Client().Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics.json does not decode: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 9 {
		t.Fatalf("/metrics.json snapshot: %+v", snap)
	}

	presp, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", presp.StatusCode)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			c := r.Counter("c_total")
			g := r.Gauge("g")
			h := r.Histogram("h_ns")
			for j := 0; j < 2000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(rng.Intn(1 << 20)))
				if j%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(int64(i))
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 16000 {
		t.Fatalf("counter = %d, want 16000", got)
	}
	if got := r.Histogram("h_ns").Snapshot().Count; got != 16000 {
		t.Fatalf("histogram count = %d, want 16000", got)
	}
}

func TestRecordingAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h_ns")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("hot-path recording allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestScrapeLiveHandler reads a live endpoint the way the load harness
// and `prlcd metrics` do: Fetch decodes /metrics.json into exactly the
// registry's snapshot, and the text endpoint external scrapers read
// stays byte-for-byte the exposition below.
func TestScrapeLiveHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter(`pin_requests_total{op="get"}`).Add(4)
	r.Counter(`pin_requests_total{op="put"}`).Add(3)
	r.Gauge("pin_active").Set(-2)
	h := r.Histogram("pin_lat_ns")
	for _, v := range []int64{100, 2000, 30000} {
		h.Observe(v)
	}
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	snap, err := Fetch(ctx, strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Errorf("fetched snapshot %+v, registry holds %+v", snap, want)
	}
	if got := snap.CounterTotal("pin_requests_total"); got != 7 {
		t.Errorf("CounterTotal(pin_requests_total) = %d, want 7", got)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE pin_requests_total counter
pin_requests_total{op="get"} 4
pin_requests_total{op="put"} 3
# TYPE pin_active gauge
pin_active -2
# TYPE pin_lat_ns summary
pin_lat_ns{quantile="0.5"} 2047
pin_lat_ns{quantile="0.95"} 30719
pin_lat_ns{quantile="0.99"} 30719
pin_lat_ns_sum 32100
pin_lat_ns_count 3
`
	if string(text) != want {
		t.Errorf("/metrics served\n%s\nwant\n%s", text, want)
	}
}

// TestFetchRoundTrip reads each kind of metric back through Fetch: a
// plain and a labelled counter, their total, a gauge and a histogram's
// count and upper quantile come back as the registry recorded them.
func TestFetchRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("loadtest_ops_total").Add(42)
	reg.Counter(`loadtest_errs_total{kind="put"}`).Add(3)
	reg.Counter(`loadtest_errs_total{kind="get"}`).Add(4)
	reg.Gauge("loadtest_active").Set(7)
	h := reg.Histogram("loadtest_lat_ns")
	for i := 0; i < 100; i++ {
		h.Observe(int64(i) * 1000)
	}
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	snap, err := Fetch(ctx, strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatalf("Fetch from our own handler: %v", err)
	}

	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if got := counters["loadtest_ops_total"]; got != 42 {
		t.Errorf("ops_total = %d, want 42", got)
	}
	if got := counters[`loadtest_errs_total{kind="put"}`]; got != 3 {
		t.Errorf("errs{put} = %d, want 3", got)
	}
	if got := snap.CounterTotal("loadtest_errs_total"); got != 7 {
		t.Errorf("CounterTotal(errs) = %d, want 7", got)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "loadtest_active" || snap.Gauges[0].Value != 7 {
		t.Errorf("gauges = %+v, want loadtest_active = 7", snap.Gauges)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Name != "loadtest_lat_ns" {
		t.Fatalf("histograms = %+v, want loadtest_lat_ns", snap.Histograms)
	}
	lat := snap.Histograms[0]
	if lat.Count != 100 {
		t.Errorf("lat count = %d, want 100", lat.Count)
	}
	if lat.P99 <= 0 {
		t.Errorf("p99 missing, got %d", lat.P99)
	}
}

func TestFetchRejectsGarbage(t *testing.T) {
	for name, h := range map[string]http.HandlerFunc{
		"not json":  func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "x_total 1\n") },
		"not found": http.NotFound,
	} {
		srv := httptest.NewServer(h)
		if _, err := Fetch(context.Background(), strings.TrimPrefix(srv.URL, "http://")); err == nil {
			t.Errorf("%s: Fetch accepted the response", name)
		}
		srv.Close()
	}
	if _, err := Fetch(context.Background(), "127.0.0.1:1"); err == nil {
		t.Error("Fetch from a closed port succeeded")
	}
}

// TestCounterTotalDoesNotMatchLongerNames pins the label boundary: a
// base name sums itself and its `base{...}` variants, never `base_foo`.
func TestCounterTotalDoesNotMatchLongerNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("foo_total").Add(1)
	r.Counter("foo_total_extra").Add(10)
	r.Counter(`foo_total{op="x"}`).Add(2)
	if got := r.Snapshot().CounterTotal("foo_total"); got != 3 {
		t.Errorf("CounterTotal = %d, want 3 (base + labeled only)", got)
	}
	if got := r.Snapshot().CounterTotal("absent_total"); got != 0 {
		t.Errorf("CounterTotal of an unregistered counter = %d, want 0", got)
	}
}
