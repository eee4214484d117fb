package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// printReport writes one pass for a reader: every metric by name with
// its unit and sample count, the failed gates, and for a traced pass the
// per-layer metrics and each layer's share of each root span's median.
func printReport(w io.Writer, r *passReport) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "\n== %s  (%s, seed %d, window %.1fs)  attempted %d  failed %d\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(name string, m metric) {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\t%s\n", name, m.Value, m.Unit, m.N, m.Note)
	}
	for _, def := range endToEnd {
		if m, ok := r.Metrics[def.Name]; ok {
			row(def.Name, m)
		}
	}
	if r.Traced {
		fmt.Fprintln(tw, "  --\t\t\t\t")
		for _, def := range perLayer {
			row(def.Name, r.Layers[def.Name])
		}
	}
	tw.Flush()
	if r.Traced {
		fmt.Fprintf(w, "  layer shares (median self time ÷ root median):\n")
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, s := range r.Trace {
			fmt.Fprintf(tw, "    %s\t%s\t%.4g ms\tof %.4g ms\t%.1f%%\tn=%d\n", s.Root, s.Layer, s.SelfP50, s.RootP50, 100*s.ShareP50, s.Ops)
		}
		tw.Flush()
	}
}

// series is one (workload, metric) pair's values across repeated sets.
type series struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
}

func (s series) median() float64 { return median(s.Values) }

// foldSeries folds untraced reports into one series per workload × metric,
// in catalog order.
func foldSeries(reports []*passReport) []series {
	var out []series
	for _, wl := range workloads {
		for _, def := range endToEnd {
			if !def.on(wl.Name) {
				continue
			}
			s := series{Workload: wl.Name, Metric: def.Name, Unit: def.Unit}
			for _, r := range reports {
				if r.Workload == wl.Name && !r.Traced {
					s.Values = append(s.Values, r.Metrics[def.Name].Value)
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// runRepeat runs k untraced sets on seeds seed, seed+1, … and prints,
// per workload × metric, the median, the quartiles and their distance as
// a share of the median. It reports failure when an operation failed or
// a spread exceeds the metric's bound (setup_s excepted, as in the
// driver: a boot is too short to be steady, and is bounded on its median
// only).
func runRepeat(o options, k int, outPath string) (failed bool, err error) {
	var reports []*passReport
	for i := 0; i < k; i++ {
		set := o
		set.seed = o.seed + int64(i)
		rs, err := fullRun(set, false)
		if err != nil {
			return false, err
		}
		for _, r := range rs {
			failed = failed || r.Failed > 0
		}
		reports = append(reports, rs...)
	}
	all := foldSeries(reports)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tunit\tspread\tbound\t")
	for _, s := range all {
		def := endToEndByName(s.Metric)
		q1, q3 := quartiles(s.Values)
		sp := spread(s.Values)
		verdict := ""
		switch {
		case def.Bound == unbounded:
			verdict = "not bounded"
		case sp > def.Bound && s.Metric != "setup_s":
			verdict = "SPREAD EXCEEDS BOUND"
			failed = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\t%.4f\t%.2f\t%s\n", s.Workload, s.Metric, s.median(), q1, q3, s.Unit, sp, def.Bound, verdict)
	}
	tw.Flush()
	if outPath != "" {
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return failed, err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return failed, err
		}
	}
	return failed, nil
}

// compareFiles prints one row per workload × metric of two -repeat -out
// files. Every ratio is new ÷ old, the old median being its base. A pair
// whose run-to-run spread on either side is wider than the metric's
// bound is unresolved, not unchanged.
func compareFiles(oldPath, newPath string) error {
	load := func(path string) (map[string]series, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var all []series
		if err := json.Unmarshal(data, &all); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out := make(map[string]series, len(all))
		for _, s := range all {
			out[s.Workload+"\x00"+s.Metric] = s
		}
		return out, nil
	}
	olds, err := load(oldPath)
	if err != nil {
		return err
	}
	news, err := load(newPath)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(olds))
	for k := range olds {
		if _, ok := news[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tunit\tnew÷old\told spread\tnew spread\tbound\tverdict\t")
	for _, k := range keys {
		a, b := olds[k], news[k]
		def := endToEndByName(a.Metric)
		if def == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n", a.Workload, a.Metric,
			a.median(), b.median(), a.Unit, b.median()/a.median(), spread(a.Values), spread(b.Values), def.Bound, verdict(def, a.Values, b.Values))
	}
	return tw.Flush()
}

// verdict judges new against old for one metric: worse when the median
// worsened by more than the bound, better when it improved by more than
// the old runs' own spread, unresolved when either side's spread is wider
// than the bound.
func verdict(def *metricDef, old, new []float64) string {
	if def.Bound == unbounded {
		return "not bounded"
	}
	if spread(old) > def.Bound || spread(new) > def.Bound {
		return "unresolved"
	}
	mo, mn := median(old), median(new)
	if mo == 0 {
		return "unresolved"
	}
	worsening := (mn - mo) / mo
	if def.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > def.Bound:
		return "worse"
	case -worsening > spread(old):
		return "better"
	default:
		return "unchanged"
	}
}
