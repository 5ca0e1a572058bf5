// Command hzbench is the repository's end-to-end benchmark. It times the
// collectives and the daemon through their public entry points
// (NewTCPTransport, RunCluster, Rank.Allreduce, Rank.ReduceScatter,
// serve.Start, Client.Submit) on three workloads, checks every
// operation's output, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the same loop with tracing on alternate cycles and reports the
// per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sizes are the per-rank message sizes of the three workloads.
type sizes struct{ bulk, sweep, serve int }

var fullSizes = sizes{bulk: 16 << 20, sweep: 1 << 20, serve: 256 << 10}

var workloadNames = []string{"bulk-hz-tcp", "sweep-inproc", "serve-mixed"}

// newWorkload builds a workload's seeded inputs; nothing is timed yet.
func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "bulk-hz-tcp":
		return newBulkTCP(seed, sz.bulk)
	case "sweep-inproc":
		return newSweepInproc(seed, sz.sweep)
	case "serve-mixed":
		return newServeMixed(seed, sz.serve, 2)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hzbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: picks the dataset fields and offsets")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "hzbench: -trace must be 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o, err := benchmark(*name, *seed, fullSizes, runConfig{seconds: *seconds, traced: *trace == 1, setupRuns: 25, minOps: 30})
	if err != nil {
		fmt.Fprintf(stderr, "hzbench: %v\n", err)
		return 1
	}
	if err := report(stdout, *name, *seed, *trace == 1, o); err != nil {
		fmt.Fprintf(stderr, "hzbench: %v\n", err)
		return 1
	}
	if o.failed > 0 {
		fmt.Fprintf(stderr, "hzbench: %d of %d operations failed; first: %v\n", o.failed, o.attempted, o.firstErr)
		return 1
	}
	return 0
}

func benchmark(name string, seed int64, sz sizes, cfg runConfig) (*outcome, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	return execute(w, cfg)
}

// report prints the machine record, every metric by name with its unit,
// and the JSON result line last.
func report(out io.Writer, name string, seed int64, traced bool, o *outcome) error {
	fmt.Fprintf(out, "workload %s  seed %d  traced %v\n", name, seed, traced)
	fmt.Fprintf(out, "machine: nproc %d  GOMAXPROCS %d  %s %s/%s  ranks are goroutines over loopback, not a real link\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "host steal share during the timed loop: %.3f\n", o.stealShare)
	fmt.Fprintf(out, "operations: %d timed, %d attempted, %d failed (fail_share %.4g)\n",
		len(o.ops), o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	names := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := o.metrics[k]
		line := fmt.Sprintf("  %-36s %14.6g %s", k, v.Value, v.Unit)
		if k == "op_tail_ms" {
			line += fmt.Sprintf("  (p%.1f of %d samples)", o.tail.Percentile, o.tail.Samples)
		}
		fmt.Fprintln(out, line)
	}
	b, err := json.Marshal(result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
