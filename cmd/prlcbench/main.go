// Command prlcbench regenerates every table and figure of the paper's
// evaluation (Sec. 5) and prints them as aligned ASCII tables, optionally
// writing machine-readable CSV next to them.
//
// Usage:
//
//	prlcbench -all                     # everything, full scale (slow)
//	prlcbench -fig 4b                  # one figure
//	prlcbench -table 1                 # Table 1
//	prlcbench -all -scale 5 -trials 20 # quick reduced-scale pass
//	prlcbench -fig 7 -csv out/         # also write out/fig7.csv
//
// At full scale (N = 1000, 100 trials) the complete run takes several
// minutes on one core; -scale 5 finishes in seconds with the same shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/exper"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prlcbench:", err)
		os.Exit(1)
	}
}

type config struct {
	fig    string
	table  int
	all    bool
	trials int
	scale  int
	stride int
	seed   int64
	csvDir string
}

func run(args []string) error {
	fs := flag.NewFlagSet("prlcbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.fig, "fig", "", "figure to regenerate: 4a, 4b, 5a, 5b, 6a, 6b, 7, 7ours (Fig. 7 under our solver's Table-1 distributions)")
	fs.IntVar(&cfg.table, "table", 0, "table to regenerate: 1")
	fs.BoolVar(&cfg.all, "all", false, "regenerate every figure and table")
	fs.IntVar(&cfg.trials, "trials", 100, "Monte-Carlo trials per curve point")
	fs.IntVar(&cfg.scale, "scale", 1, "divide the paper's problem size by this factor")
	fs.IntVar(&cfg.stride, "stride", 100, "checkpoint stride in coded blocks")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.StringVar(&cfg.csvDir, "csv", "", "directory to write CSV copies into")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !cfg.all && cfg.fig == "" && cfg.table == 0 {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -all, -fig or -table")
	}
	if cfg.csvDir != "" {
		if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
			return err
		}
	}

	figs := []string{cfg.fig}
	if cfg.all {
		figs = []string{"4a", "4b", "5a", "5b", "6a", "6b", "7"}
	}
	for _, f := range figs {
		if f == "" {
			continue
		}
		if err := runFigure(cfg, f); err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
	}
	if cfg.table == 1 || cfg.all {
		if err := runTable1(cfg); err != nil {
			return fmt.Errorf("table 1: %w", err)
		}
	}
	return nil
}

func figOpts(cfg config) exper.FigureOptions {
	return exper.FigureOptions{
		Trials: cfg.trials,
		Seed:   cfg.seed,
		Scale:  cfg.scale,
		Stride: cfg.stride,
	}
}

func runFigure(cfg config, fig string) error {
	opts := figOpts(cfg)
	var (
		curves []*exper.Curve
		title  string
	)
	switch fig {
	case "4a", "4b", "5a", "5b":
		scheme := core.PLC
		figName := "4"
		if strings.HasPrefix(fig, "5") {
			scheme = core.SLC
			figName = "5"
		}
		nLevels := 5
		if strings.HasSuffix(fig, "b") {
			nLevels = 50
		}
		c, err := exper.AnalysisVsSimulation(scheme, nLevels, opts)
		if err != nil {
			return err
		}
		curves = []*exper.Curve{c}
		title = fmt.Sprintf("Figure %s(%s): analysis vs simulation for %s, %d priority levels",
			figName, fig[1:], scheme, nLevels)
	case "6a", "6b":
		nLevels := 10
		if fig == "6b" {
			nLevels = 50
		}
		slc, plc, err := exper.SLCvsPLC(nLevels, opts)
		if err != nil {
			return err
		}
		curves = []*exper.Curve{slc, plc}
		title = fmt.Sprintf("Figure 6(%s): SLC vs PLC, %d priority levels", fig[1:], nLevels)
	case "7":
		paper := []core.PriorityDistribution{
			{0.5138, 0.0768, 0.4094},
			{0, 0.6149, 0.3851},
			{0.2894, 0.3246, 0.3860},
		}
		cs, err := exper.Fig7(paper, []string{"Case 1", "Case 2", "Case 3"}, opts)
		if err != nil {
			return err
		}
		curves = cs
		title = "Figure 7: PLC decoding curves under the paper's Table 1 distributions"
	case "7ours":
		// Close the Table 1 → Fig. 7 loop with our own solver output, as
		// the paper does with its MATLAB solutions.
		cases, err := exper.Table1(cfg.seed)
		if err != nil {
			return err
		}
		dists := make([]core.PriorityDistribution, 0, len(cases))
		names := make([]string, 0, len(cases))
		for _, c := range cases {
			if !c.Feasible {
				return fmt.Errorf("%s: solver found no feasible distribution", c.Name)
			}
			dists = append(dists, c.SolvedP)
			names = append(names, c.Name+" (ours)")
		}
		cs, err := exper.Fig7(dists, names, opts)
		if err != nil {
			return err
		}
		curves = cs
		title = "Figure 7 (ours): PLC decoding curves under our solver's Table 1 distributions"
	default:
		return fmt.Errorf("unknown figure %q (want 4a, 4b, 5a, 5b, 6a, 6b, 7, 7ours)", fig)
	}

	if err := exper.RenderCurves(os.Stdout, title, curves...); err != nil {
		return err
	}
	fmt.Println()
	if cfg.csvDir != "" {
		f, err := os.Create(filepath.Join(cfg.csvDir, "fig"+fig+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := exper.WriteCurvesCSV(f, curves...); err != nil {
			return err
		}
	}
	return nil
}

func runTable1(cfg config) error {
	cases, err := exper.Table1(cfg.seed)
	if err != nil {
		return err
	}
	if err := exper.RenderTable1(os.Stdout, cases); err != nil {
		return err
	}
	fmt.Println()
	return nil
}
