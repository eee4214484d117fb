package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gf256"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/gf256
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAddMulSlice_1KiB-8      5727258        41.12 ns/op    24905.23 MB/s
BenchmarkAddMulSliceRef_1KiB-8    250032       932.40 ns/op     1098.29 MB/s
PASS
ok   repro/internal/gf256   2.119s
pkg: repro/internal/core
BenchmarkEncodeN256-8                100      10000000 ns/op      32.76 MB/s
BenchmarkEncodeN256Workers4-8        400       2600000 ns/op     126.00 MB/s
PASS
ok   repro/internal/core    1.002s
`

func TestParse(t *testing.T) {
	snap, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOOS != "linux" || snap.GOARCH != "amd64" {
		t.Errorf("goos/goarch = %q/%q", snap.GOOS, snap.GOARCH)
	}
	if !strings.Contains(snap.CPU, "Xeon") {
		t.Errorf("cpu = %q", snap.CPU)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.Name != "AddMulSlice_1KiB" || b.Iters != 5727258 || b.NsPerOp != 41.12 || b.MBPerSec != 24905.23 {
		t.Errorf("first benchmark parsed as %+v", b)
	}
	if b.Package != "repro/internal/gf256" {
		t.Errorf("first benchmark package = %q", b.Package)
	}
	if p := snap.Benchmarks[2].Package; p != "repro/internal/core" {
		t.Errorf("third benchmark package = %q", p)
	}
}

func TestPairSpeedups(t *testing.T) {
	snap, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	got := pairSpeedups(snap.Benchmarks)
	want := map[string]struct {
		baseline string
		speedup  float64
	}{
		"AddMulSlice_1KiB":   {"AddMulSliceRef_1KiB", 22.68},
		"EncodeN256Workers4": {"EncodeN256", 3.85},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d speedups %+v, want %d", len(got), got, len(want))
	}
	for _, s := range got {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected speedup entry %+v", s)
			continue
		}
		if s.Baseline != w.baseline || s.Speedup != w.speedup {
			t.Errorf("%s: got baseline=%s speedup=%v, want baseline=%s speedup=%v",
				s.Name, s.Baseline, s.Speedup, w.baseline, w.speedup)
		}
	}
}

func TestBaselineName(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"AddMulSlice_64KiB", "AddMulSliceRef_64KiB", true},
		{"MulSlice_1KiB", "MulSliceRef_1KiB", true},
		{"AddMulSliceSparse_1KiB", "AddMulSliceSparseRef_1KiB", true},
		{"EncodeN256Workers2", "EncodeN256", true},
		{"AddMulSliceRef_1KiB", "", false},
		{"DecodeN64", "DecodeN64Ref", true},
	}
	for _, tc := range cases {
		got, ok := baselineName(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("baselineName(%q) = %q, %v; want %q, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestParseExtraMetrics pins the ReportMetric pairs: a `<value> <unit>`
// tail after ns/op (with or without MB/s) lands in the Metrics map.
func TestParseExtraMetrics(t *testing.T) {
	const out = `pkg: repro/internal/core
BenchmarkWireSparseN1024-8       2     114928 ns/op        123.0 wire-B/block
BenchmarkDecodeSparseN512-8      2   14298040 ns/op   2.29 MB/s   7.5 extra/unit
`
	snap, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(snap.Benchmarks))
	}
	if got := snap.Benchmarks[0].Metrics["wire-B/block"]; got != 123.0 {
		t.Errorf("wire-B/block = %v, want 123.0", got)
	}
	if snap.Benchmarks[0].MBPerSec != 0 {
		t.Errorf("MB/s = %v, want 0 (absent)", snap.Benchmarks[0].MBPerSec)
	}
	b := snap.Benchmarks[1]
	if b.MBPerSec != 2.29 || b.Metrics["extra/unit"] != 7.5 {
		t.Errorf("second benchmark parsed as %+v", b)
	}
}

// TestRunRecordsWhatProducedTheNumbers pins the snapshot's provenance
// fields: the CPU count and the GF(2^8) kernel tier of the measuring box.
func TestRunRecordsWhatProducedTheNumbers(t *testing.T) {
	out := filepath.Join(t.TempDir(), "snap.json")
	if err := run(strings.NewReader(sampleOutput), out, "a note", "the test"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap["gf256_kernel"]; got != gf256.Kernel() || got == "" {
		t.Errorf("gf256_kernel = %v, want %q", got, gf256.Kernel())
	}
	if got := snap["num_cpu"]; got != float64(runtime.NumCPU()) {
		t.Errorf("num_cpu = %v, want %d", got, runtime.NumCPU())
	}
	if got := snap["generated_by"]; got != "the test" {
		t.Errorf("generated_by = %v", got)
	}
}
