package main

import (
	"fmt"
	"os"
	"text/tabwriter"
)

// sweepRates is the ladder of offered rates, ops/s.
var sweepRates = []float64{150, 300, 600, 1200, 2400, 4800, 9600}

const (
	// sweepLimitMs is the get latency limit a rate must meet.
	sweepLimitMs = 50.0
	// sweepBacklogMs is how much later the last quarter of a step's
	// operations may start than its first quarter before the backlog
	// counts as growing.
	sweepBacklogMs = 20.0
)

// runSweep offers mixed-steady's mix at each rate of the ladder for a
// fixed time and prints the latencies, then the highest rate whose get
// p99 meets the limit without a growing backlog. One step of the ladder
// is wider than a tenth, so the result is printed for orientation and is
// not one of the gated metrics.
func runSweep(o options) error {
	wl := workloadByName(wMixed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "offered ops/s\tget p50 ms\tget p99 ms\tput p50 ms\tput p99 ms\tlag first¼ ms\tlag last¼ ms\tdropped\tfailed\tmeets limit\t")
	best := 0.0
	for _, rate := range sweepRates {
		step := o
		step.rate = rate
		p := newPass(step, window(9), nil, 1)
		if err := wl.run(p); err != nil {
			return err
		}
		lag := p.lag.v // in start order
		q := len(lag) / 4
		first, last := median(lag[:q]), median(lag[len(lag)-q:])
		ok := p.e2e["get_p99_ms"].Value <= sweepLimitMs && last-first <= sweepBacklogMs && p.failed.Load() == 0
		if ok {
			best = rate
		}
		fmt.Fprintf(tw, "%.0f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%d\t%d\t%v\t\n", p.offeredPerS,
			p.e2e["get_p50_ms"].Value, p.e2e["get_p99_ms"].Value, p.e2e["put_p50_ms"].Value, p.e2e["put_p99_ms"].Value,
			first, last, p.dropped.Load(), p.failed.Load(), ok)
	}
	tw.Flush()
	fmt.Printf("highest rate with get p99 <= %.0f ms and no growing backlog: %.0f ops/s\n", sweepLimitMs, best)
	return nil
}
