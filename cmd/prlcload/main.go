// Command prlcload pushes a prlc fleet through named load-and-chaos
// scenarios and reports whether it held its SLOs.
//
//	prlcload scenarios                               # list the builtin matrix
//	prlcload show churn-storm                        # print a scenario as JSON
//	prlcload run -scenario steady-state              # one scenario, in-process fleet
//	prlcload run -scenario my.json -prlcd ./prlcd    # scenario file, real daemons
//	prlcload matrix -prlcd ./prlcd -out load.json -check
//
// run and matrix drive either real prlcd processes (-prlcd, each with
// its own data directory, killed and restarted live by the chaos
// controller) or an in-process fleet (the default, for smoke tests).
// Every run emits per-level put/get p50/p99 latencies, error rates,
// goodput, the executed fault schedule with its determinism hash, a
// bit-exact level-0 decode spot-check, and a cross-check of the
// generator's own counters against the fleet's scraped metrics. -check
// turns SLO violations into a nonzero exit for CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prlcload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: prlcload scenarios|show|run|matrix [flags]")
	}
	switch args[0] {
	case "scenarios":
		return scenariosCmd(out)
	case "show":
		return showCmd(args[1:], out)
	case "run":
		return runCmd(args[1:], out, false)
	case "matrix":
		return runCmd(args[1:], out, true)
	default:
		return fmt.Errorf("unknown subcommand %q (want scenarios, show, run or matrix)", args[0])
	}
}

func scenariosCmd(out io.Writer) error {
	fmt.Fprintf(out, "%-18s %-8s %s\n", "scenario", "seed", "description")
	for _, sc := range loadgen.Builtins() {
		fmt.Fprintf(out, "%-18s %-8d %s\n", sc.Name, sc.Seed, sc.Description)
	}
	return nil
}

func showCmd(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: prlcload show <scenario>")
	}
	sc, err := loadgen.Builtin(args[0])
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(raw))
	return nil
}

// benchFile is the -out report shape: one report per scenario plus
// the fleet description and any SLO violations.
type benchFile struct {
	Bench      string            `json:"bench"`
	Generated  string            `json:"generated"`
	Fleet      string            `json:"fleet"`
	Nodes      int               `json:"nodes"`
	Reports    []*loadgen.Report `json:"reports"`
	Violations []string          `json:"violations,omitempty"`
}

func runCmd(args []string, out io.Writer, matrix bool) error {
	name := "run"
	if matrix {
		name = "matrix"
	}
	fs := flag.NewFlagSet("prlcload "+name, flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "", "builtin scenario names (comma-separated) or a scenario file (run only)")
		nodes    = fs.Int("nodes", 3, "fleet size")
		prlcd    = fs.String("prlcd", "", "prlcd binary: run real daemon processes (empty = in-process fleet)")
		dataDir  = fs.String("data-dir", "", "base directory for daemon data dirs (default: temp)")
		outPath  = fs.String("out", "", "write the JSON report here")
		check    = fs.Bool("check", false, "exit nonzero on SLO violations")
		duration = fs.Duration("duration", 0, "override scenario duration")
		rate     = fs.Float64("rate", 0, "override base arrival rate (ops/sec; phases scale proportionally)")
		clients  = fs.Int("clients", 0, "override worker-pool size")
		seed     = fs.Int64("seed", 0, "override scenario seed")
		verbose  = fs.Bool("v", false, "progress and daemon logs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	var scs []loadgen.Scenario
	switch {
	case matrix:
		if *scenario != "" {
			return fmt.Errorf("matrix runs all builtin scenarios; use run -scenario for one")
		}
		scs = loadgen.Builtins()
	case *scenario == "":
		return fmt.Errorf("run needs -scenario <name|file> (see prlcload scenarios)")
	case strings.ContainsAny(*scenario, "./") || strings.HasSuffix(*scenario, ".json"):
		var err error
		scs, err = loadgen.LoadScenarios(*scenario)
		if err != nil {
			return err
		}
	default:
		for _, name := range strings.Split(*scenario, ",") {
			sc, err := loadgen.Builtin(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			scs = append(scs, sc)
		}
	}
	for i := range scs {
		applyOverrides(&scs[i], *duration, *rate, *clients, *seed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Boot the fleet.
	var (
		fleet     loadgen.Fleet
		closer    func()
		fleetKind = "inproc"
	)
	if *prlcd != "" {
		base := *dataDir
		if base == "" {
			var err error
			base, err = os.MkdirTemp("", "prlcload-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(base)
		}
		var logw io.Writer
		if *verbose {
			logw = out
		}
		pf, err := StartProcFleet(*prlcd, *nodes, base, logw)
		if err != nil {
			return err
		}
		fleet, closer, fleetKind = pf, pf.Close, "prlcd"
	} else {
		sf, err := loadgen.NewServerFleet(*nodes, true)
		if err != nil {
			return err
		}
		fleet, closer = sf, sf.Close
	}
	defer closer()
	fmt.Fprintf(out, "prlcload: %s fleet of %d nodes: %s\n", fleetKind, *nodes, strings.Join(fleet.Addrs(), " "))

	rc := loadgen.RunConfig{}
	if *verbose {
		rc.Logf = func(format string, a ...any) { fmt.Fprintf(out, "prlcload: "+format+"\n", a...) }
	}

	bench := benchFile{
		Bench:     "load",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Fleet:     fleetKind,
		Nodes:     *nodes,
	}
	reviver, _ := fleet.(interface{ Revive() error })
	for i, sc := range scs {
		if i > 0 && reviver != nil {
			// A permanent kill in the previous scenario must not degrade
			// this one.
			if err := reviver.Revive(); err != nil {
				return fmt.Errorf("reviving fleet before %s: %w", sc.Name, err)
			}
		}
		rep, err := loadgen.Run(ctx, fleet, sc, rc)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		bench.Reports = append(bench.Reports, rep)
		fmt.Fprint(out, rep.Text())
		for _, v := range rep.SLOViolations(sc.ExpectZeroErrors) {
			bench.Violations = append(bench.Violations, sc.Name+": "+v)
		}
	}

	if *outPath != "" {
		raw, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "prlcload: wrote %s (%d scenarios)\n", *outPath, len(bench.Reports))
	}
	if len(bench.Violations) > 0 {
		fmt.Fprintf(out, "prlcload: %d SLO violations:\n", len(bench.Violations))
		for _, v := range bench.Violations {
			fmt.Fprintf(out, "  %s\n", v)
		}
		if *check {
			return fmt.Errorf("%d SLO violations", len(bench.Violations))
		}
	} else {
		fmt.Fprintln(out, "prlcload: all SLOs held")
	}
	return nil
}

// applyOverrides rescales a scenario from the command line; rate phases
// scale by the same factor so a flash crowd stays a flash crowd.
func applyOverrides(sc *loadgen.Scenario, duration time.Duration, rate float64, clients int, seed int64) {
	if duration > 0 {
		scale := float64(duration) / float64(sc.Duration.D())
		sc.Duration = loadgen.Duration(duration)
		for i := range sc.Phases {
			sc.Phases[i].At = loadgen.Duration(float64(sc.Phases[i].At.D()) * scale)
		}
		for i := range sc.Faults {
			sc.Faults[i].At = loadgen.Duration(float64(sc.Faults[i].At.D()) * scale)
			if sc.Faults[i].For > 0 {
				sc.Faults[i].For = loadgen.Duration(float64(sc.Faults[i].For.D()) * scale)
			}
		}
		if sc.RepairInterval > 0 {
			sc.RepairInterval = loadgen.Duration(float64(sc.RepairInterval.D()) * scale)
		}
		if sc.MigrateInterval > 0 {
			sc.MigrateInterval = loadgen.Duration(float64(sc.MigrateInterval.D()) * scale)
		}
	}
	if rate > 0 {
		scale := rate / sc.Rate
		sc.Rate = rate
		for i := range sc.Phases {
			sc.Phases[i].Rate *= scale
		}
	}
	if clients > 0 {
		sc.Clients = clients
	}
	if seed != 0 {
		sc.Seed = seed
	}
}
