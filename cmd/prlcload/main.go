// Command prlcload pushes a prlc fleet through named load-and-chaos
// scenarios and fails unless it held its SLOs.
//
//	prlcload scenarios                               # list the builtin scenarios
//	prlcload show churn-storm                        # print a scenario as JSON
//	prlcload run                                     # every builtin, in-process fleet
//	prlcload run -scenario steady-state              # one scenario, in-process fleet
//	prlcload run -scenario my.json -prlcd ./prlcd    # scenario file, real daemons
//
// run drives either real prlcd processes (-prlcd, each with its own
// data directory, killed and restarted live by the chaos controller) or
// an in-process fleet (the default, for smoke tests). Every scenario
// prints its op and error counts, the executed fault schedule with its
// determinism hash, a bit-exact level-0 decode check of every object,
// and a cross-check of the generator's own counters against the fleet's
// scraped metrics. Any SLO violation makes run fail with a nonzero
// exit.
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
		return fmt.Errorf("usage: prlcload scenarios|show|run [flags]")
	}
	switch args[0] {
	case "scenarios":
		return scenariosCmd(out)
	case "show":
		return showCmd(args[1:], out)
	case "run":
		return runCmd(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want scenarios, show or run)", args[0])
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

func runCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prlcload run", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "", "builtin scenario names (comma-separated) or a scenario file (empty = every builtin)")
		nodes    = fs.Int("nodes", 3, "fleet size")
		prlcd    = fs.String("prlcd", "", "prlcd binary: run real daemon processes (empty = in-process fleet)")
		dataDir  = fs.String("data-dir", "", "base directory for daemon data dirs (default: temp)")
		duration = fs.Duration("duration", 0, "override scenario duration")
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
	case *scenario == "":
		scs = loadgen.Builtins()
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
		applyOverrides(&scs[i], *duration, *seed)
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
		sf, err := loadgen.NewServerFleet(*nodes)
		if err != nil {
			return err
		}
		fleet, closer = sf, sf.Close
	}
	defer closer()
	fmt.Fprintf(out, "prlcload: %s fleet of %d nodes: %s\n", fleetKind, *nodes, strings.Join(fleet.Addrs(), " "))

	var logf func(format string, a ...any)
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(out, "prlcload: "+format+"\n", a...) }
	}

	var violations []string
	reviver, _ := fleet.(interface{ Revive() error })
	for i, sc := range scs {
		if i > 0 && reviver != nil {
			// A permanent kill in the previous scenario must not degrade
			// this one.
			if err := reviver.Revive(); err != nil {
				return fmt.Errorf("reviving fleet before %s: %w", sc.Name, err)
			}
		}
		rep, err := loadgen.Run(ctx, fleet, sc, logf)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		fmt.Fprint(out, rep.Text())
		for _, v := range rep.SLOViolations(sc.ExpectZeroErrors) {
			violations = append(violations, sc.Name+": "+v)
		}
	}

	if len(violations) > 0 {
		fmt.Fprintf(out, "prlcload: %d SLO violations:\n", len(violations))
		for _, v := range violations {
			fmt.Fprintf(out, "  %s\n", v)
		}
		return fmt.Errorf("%d SLO violations", len(violations))
	}
	fmt.Fprintln(out, "prlcload: all SLOs held")
	return nil
}

// applyOverrides rescales a scenario from the command line: a new
// duration moves rate phases, faults and loop intervals by the same
// factor, so a flash crowd stays a flash crowd.
func applyOverrides(sc *loadgen.Scenario, duration time.Duration, seed int64) {
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
		if sc.HealInterval > 0 {
			sc.HealInterval = loadgen.Duration(float64(sc.HealInterval.D()) * scale)
		}
	}
	if seed != 0 {
		sc.Seed = seed
	}
}
