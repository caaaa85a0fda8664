// Command perfbench is the repository's benchmark. It regenerates the
// paper's headline figures in-process (fig21-sweep, fig25-16gpu) and
// drives the campaign service over loopback HTTP (campaign-loopback),
// checks every table it produces, and prints each metric by name with
// its unit and sample count. The last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation installed; with -trace 1 they are the per-layer ones,
// from spans around the benchmark's calls into each package, a CPU
// profile attributed by package, and runtime/metrics deltas.
//
// Run one workload per process, so that set-up time and peak memory
// belong to it:
//
//	go run . -workload fig21-sweep -seed 1 -seconds 20 -trace 0
//
// With -setup-only the process sets up, checks the set-up, reports
// setup_s alone and exits; run.py starts several such processes to take
// the median set-up time.
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procStart approximates the process start: package variables initialise
// before main runs.
var procStart = time.Now()

// runMargin bounds what a run may spend beyond its timed phase (set-up,
// the pass in flight at the deadline, the reference passes), so a hung
// service cannot outlive it.
const runMargin = 140 * time.Second

// options carries one run's arguments.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool
	spans     string
	procStart time.Time
	// scale overrides the workload's bench scale when > 0; only the
	// self-tests set it, to run the workloads small.
	scale float64
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// minPasses is the least number of timed passes: one, or two in a traced
// run, which alternates untraced and traced passes to measure the
// tracing overhead.
func (o options) minPasses() int {
	if o.trace {
		return 2
	}
	return 1
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) *report{
	"fig21-sweep":       func(ctx context.Context, o options) *report { return runSweep(ctx, o, fig21Sweep()) },
	"fig25-16gpu":       func(ctx context.Context, o options) *report { return runSweep(ctx, o, fig25Sweep()) },
	"campaign-loopback": runLoopback,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its report. It returns 0
// when the run was correct, 1 when a check failed, 2 on bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{procStart: procStart}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(sortedKeys(workloads)))
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the workload seed of the sweeps, the first campaign's seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, no instrumentation; 1: per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set up, report setup_s alone and exit")
	fs.StringVar(&o.spans, "spans", "", "traced runs: write the spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, ok := workloads[o.workload]
	if !ok || fs.NArg() > 0 || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || (o.setupOnly && *traceFlag == 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %v, -seconds > 0, -trace 0|1, no -setup-only with -trace 1\n", sortedKeys(workloads))
		return 2
	}
	o.trace = *traceFlag == 1
	return execute(o, stdout, stderr)
}

// execute runs the workload o names and prints its report. It returns 0
// when the run was correct, 1 otherwise.
func execute(o options, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), o.duration()+runMargin)
	defer cancel()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%v setup-only=%v nproc=%d GOMAXPROCS=%d %s\n",
		o.workload, o.seed, o.seconds, o.trace, o.setupOnly, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep := workloads[o.workload](ctx, o)
	published := endToEnd
	switch {
	case o.trace:
		published = perLayer
	case o.setupOnly:
		published = setupOnly
	}
	if err := rep.write(stdout, published); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
