// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark snapshot. It exists so `make bench-kernels` can commit a
// machine-readable perf baseline (BENCH_kernels.json) that later
// performance PRs diff against.
//
// Fast-kernel benchmarks are paired with their scalar baselines — a
// benchmark named X is compared against XRef (the pre-kernel reference
// implementation) and BenchmarkEncodeN256WorkersK against BenchmarkEncodeN256
// (the single-worker pipeline) — and the resulting before/after speedups are
// embedded in the snapshot.
//
// Usage:
//
//	go test -run=NONE -bench ... ./... | benchjson -out BENCH_kernels.json
//
// -by names the producing make target in the snapshot's generated_by field
// (default "make bench-kernels"). The snapshot also records num_cpu and
// gf256_kernel — the GF(2^8) kernel tier this machine dispatches to — so a
// BENCH_*.json says what produced its numbers; benchjson runs on the box
// that ran the benchmarks, at the other end of the pipe.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/gf256"
)

func main() {
	out := "BENCH_kernels.json"
	note := ""
	by := "make bench-kernels"
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-out", "--out":
			if i+1 >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -out needs a path")
				os.Exit(2)
			}
			i++
			out = args[i]
		case "-note", "--note":
			if i+1 >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -note needs a string")
				os.Exit(2)
			}
			i++
			note = args[i]
		case "-by", "--by":
			if i+1 >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -by needs a string")
				os.Exit(2)
			}
			i++
			by = args[i]
		default:
			fmt.Fprintf(os.Stderr, "benchjson: unknown flag %q\n", args[i])
			os.Exit(2)
		}
	}
	if err := run(os.Stdin, out, note, by); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name     string  `json:"name"`
	Package  string  `json:"package,omitempty"`
	Iters    int64   `json:"iterations"`
	NsPerOp  float64 `json:"ns_per_op"`
	MBPerSec float64 `json:"mb_per_s,omitempty"`
	// Metrics holds any extra per-op values the benchmark emitted via
	// b.ReportMetric (e.g. "wire-B/block"), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Speedup records one before/after pairing.
type Speedup struct {
	Name     string  `json:"name"`
	Baseline string  `json:"baseline"`
	Speedup  float64 `json:"speedup"`
}

// Snapshot is the committed JSON document.
type Snapshot struct {
	GeneratedBy string      `json:"generated_by"`
	GOOS        string      `json:"goos,omitempty"`
	GOARCH      string      `json:"goarch,omitempty"`
	CPU         string      `json:"cpu,omitempty"`
	NumCPU      int         `json:"num_cpu"`
	GF256Kernel string      `json:"gf256_kernel"`
	Note        string      `json:"note,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
	Speedups    []Speedup   `json:"speedups,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkAddMulSlice_1KiB-8   5727258   41.12 ns/op   24905.23 MB/s
//
// The -N GOMAXPROCS suffix is stripped from the name; MB/s is optional.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) MB/s)?(.*)$`)

// metricPair matches the remaining `<value> <unit>` pairs a benchmark
// reports via b.ReportMetric, e.g. `123.0 wire-B/block`.
var metricPair = regexp.MustCompile(`([0-9.]+) (\S+)`)

func run(r io.Reader, out, note, by string) error {
	snap, err := parse(r)
	if err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	snap.GeneratedBy = by
	snap.NumCPU = runtime.NumCPU()
	snap.GF256Kernel = gf256.Kernel()
	snap.Note = note
	snap.Speedups = pairSpeedups(snap.Benchmarks)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{GeneratedBy: "make bench-kernels"}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			iters, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
			}
			ns, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
			}
			b := Benchmark{Name: strings.TrimPrefix(m[1], "Benchmark"), Package: pkg, Iters: iters, NsPerOp: ns}
			if m[4] != "" {
				b.MBPerSec, err = strconv.ParseFloat(m[4], 64)
				if err != nil {
					return nil, fmt.Errorf("bad MB/s in %q: %w", line, err)
				}
			}
			for _, pm := range metricPair.FindAllStringSubmatch(m[5], -1) {
				v, err := strconv.ParseFloat(pm[1], 64)
				if err != nil {
					return nil, fmt.Errorf("bad metric in %q: %w", line, err)
				}
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[pm[2]] = v
			}
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	return snap, sc.Err()
}

// workersName matches EncodeN256Workers4-style names so parallel pipeline
// benches pair against their single-worker variant.
var workersName = regexp.MustCompile(`^(.+?)Workers\d+$`)

// pairSpeedups derives before/after ratios: kernel benchmark X pairs with
// scalar baseline XRef (name-wise: Foo_1KiB vs FooRef_1KiB), and a
// -workers pipeline bench pairs with its 1-worker variant.
func pairSpeedups(benches []Benchmark) []Speedup {
	byName := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	var out []Speedup
	for _, b := range benches {
		base, ok := baselineName(b.Name)
		if !ok {
			continue
		}
		ref, ok := byName[base]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		out = append(out, Speedup{
			Name:     b.Name,
			Baseline: base,
			Speedup:  round2(ref.NsPerOp / b.NsPerOp),
		})
	}
	return out
}

func baselineName(name string) (string, bool) {
	if strings.Contains(name, "Ref") {
		return "", false
	}
	if m := workersName.FindStringSubmatch(name); m != nil {
		return m[1], true
	}
	// Foo_1KiB -> FooRef_1KiB; Foo -> FooRef.
	if i := strings.IndexByte(name, '_'); i >= 0 {
		return name[:i] + "Ref" + name[i:], true
	}
	return name + "Ref", true
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}
