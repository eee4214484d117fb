// Command benchmark is the repository's one benchmark: four workloads
// over an in-process fleet of the priority block store, sixteen
// end-to-end metrics, and a per-layer budget read from an outside trace.
// See README.md in this directory.
//
//	go run ./benchmark                      all four workloads, untraced + traced pass
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1   one run, driver contract
//	go run ./benchmark -repeat K [-out F]   K sets, median / quartiles / spread per metric
//	go run ./benchmark -compare OLD NEW     verdict per workload × metric
//	go run ./benchmark -sweep               rate ladder on mixed-steady
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the workload seed when -seed is not given.
const defaultSeed = 20070625

// setupReps is the least number of times an untraced pass sets its fleet
// up; the median is setup_s.
const setupReps = 15

// passReport is what one pass of one workload prints.
type passReport struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	Trace     []layerShare      `json:"trace,omitempty"`
}

type options struct {
	seed     int64
	seconds  float64
	dataDir  string
	traceOut string
	// rate replaces the open-loop workloads' fixed rates; 0 keeps them.
	// Only the sweep and the tests set it.
	rate float64
}

// runPass boots, drives and tears down one workload once.
func runPass(wl *workloadDef, o options, window time.Duration, traced bool, reps int) (*pass, *passReport, error) {
	var in *instr
	if traced {
		in = newInstr()
	}
	p := newPass(o, window, in, reps)
	if err := wl.run(p); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	rep := &passReport{
		Workload: wl.Name, Seed: o.seed, Seconds: window.Seconds(), Traced: traced,
		Attempted: p.attempted.Load(), Failed: p.failed.Load(), Failures: p.failures,
		Metrics: make(map[string]metric),
	}
	for _, def := range endToEnd {
		if !def.on(wl.Name) {
			continue
		}
		m, ok := p.e2e[def.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: metric %s was not measured", wl.Name, def.Name)
		}
		rep.Metrics[def.Name] = m
	}
	return p, rep, nil
}

// runTraced runs the traced pass and derives the per-layer metrics;
// untraced is the same workload's untraced report, for the overhead
// ratio.
func runTraced(wl *workloadDef, o options, window time.Duration, untraced *passReport) (*pass, *passReport, error) {
	p, rep, err := runPass(wl, o, window, true, 1)
	if err != nil {
		return nil, nil, err
	}
	ratio := 0.0
	if base := untraced.Metrics[wl.Primary].Value; base > 0 {
		ratio = rep.Metrics[wl.Primary].Value / base
	}
	rep.Layers = layerMetrics(p, ratio)
	rep.Trace = summarize(p.in.tr.spans)
	if o.traceOut != "" {
		if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
			return nil, nil, err
		}
		if err := p.in.tr.writeFile(filepath.Join(o.traceOut, wl.Name+".spans.json")); err != nil {
			return nil, nil, err
		}
	}
	return p, rep, nil
}

func window(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// driverResult is the one JSON object a run under the driver's contract
// prints as the last line of its standard output.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`

	reports []*passReport
	spans   []span // of the traced pass
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is one run under the driver's contract: one workload, and
// every BENCHMARK.json end_to_end metric (untraced) or per_layer metric
// (traced).
func driverRun(wl *workloadDef, o options, traced bool) (*driverResult, error) {
	out := &driverResult{Metrics: make(map[string]driverValue)}
	if !traced {
		_, rep, err := runPass(wl, o, window(o.seconds), false, setupReps)
		if err != nil {
			return nil, err
		}
		out.reports = []*passReport{rep}
		for _, def := range endToEnd {
			if def.gated() {
				out.Metrics[def.Name] = driverValue{rep.Metrics[def.Name].Value, def.Unit}
			}
		}
	} else {
		// A third of the window untraced, two thirds traced: the first
		// gives the base of driver.trace_overhead_ratio.
		_, un, err := runPass(wl, o, window(o.seconds/3), false, 1)
		if err != nil {
			return nil, err
		}
		p, tr, err := runTraced(wl, o, window(o.seconds*2/3), un)
		if err != nil {
			return nil, err
		}
		out.reports, out.spans = []*passReport{un, tr}, p.in.tr.spans
		for name, m := range tr.Layers {
			out.Metrics[name] = driverValue{m.Value, m.Unit}
		}
		// End-to-end metrics that only some workloads measure ride along
		// here; 0 on a workload that does not measure them.
		for _, def := range endToEnd {
			if !def.gated() {
				out.Metrics[def.Name] = driverValue{tr.Metrics[def.Name].Value, def.Unit}
			}
		}
	}
	for _, r := range out.reports {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// fullRun runs every workload untraced and then traced at half length,
// and returns the reports in that order.
func fullRun(o options, withTrace bool) ([]*passReport, error) {
	var reports []*passReport
	for i := range workloads {
		wl := &workloads[i]
		_, un, err := runPass(wl, o, window(o.seconds), false, setupReps)
		if err != nil {
			return nil, err
		}
		printReport(os.Stderr, un)
		reports = append(reports, un)
		if !withTrace {
			continue
		}
		_, tr, err := runTraced(wl, o, window(o.seconds/2), un)
		if err != nil {
			return nil, err
		}
		printReport(os.Stderr, tr)
		reports = append(reports, tr)
	}
	return reports, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o        options
		workload = flag.String("workload", "", "run one workload under the driver contract: "+workloadNames())
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced one")
		repeat   = flag.Int("repeat", 0, "run this many full untraced sets (seed, seed+1, ...) and print median, quartiles and spread per metric")
		out      = flag.String("out", "", "with -repeat: also write every run as JSON, for -compare")
		compare  = flag.Bool("compare", false, "compare two -repeat -out files: benchmark -compare old.json new.json")
		sweep    = flag.Bool("sweep", false, "informational rate ladder on mixed-steady")
	)
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; the program under test sees only the inputs generated from it")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured window per workload")
	flag.StringVar(&o.dataDir, "data-dir", filepath.Join(".bench_build", "data"), "where disk engines keep their segments (removed at exit)")
	flag.StringVar(&o.traceOut, "trace-out", "", "directory to write each traced pass's spans into, as <workload>.spans.json")
	flag.Parse()

	runtime.GOMAXPROCS(parallelism())
	o.dataDir = filepath.Join(o.dataDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(o.dataDir)

	var err error
	failed := false
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *sweep:
		err = runSweep(o)
	case *repeat > 0:
		failed, err = runRepeat(o, *repeat, *out)
	case *workload != "":
		wl := workloadByName(*workload)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q; want one of %s\n", *workload, workloadNames())
			return 2
		}
		var res *driverResult
		if res, err = driverRun(wl, o, *trace != 0); err == nil {
			printReport(os.Stderr, res.reports[len(res.reports)-1])
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Println(string(line))
			}
		}
	default:
		var reports []*passReport
		if reports, err = fullRun(o, true); err == nil {
			for _, r := range reports {
				failed = failed || r.Failed > 0
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", " ")
			err = enc.Encode(reports)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}
