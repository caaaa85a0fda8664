// Package prof wires the standard pprof profilers into the command-line
// tools, so kernel regressions found by the benchmark harness can be
// chased down with `go tool pprof` on a real run instead of a synthetic
// benchmark.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Options names the profile outputs to collect; empty paths are skipped.
type Options struct {
	// CPU receives a CPU profile covering Start..stop.
	CPU string
	// Mem receives a heap profile captured at stop.
	Mem string
	// Block receives a blocking profile (channel waits, lock waits)
	// captured at stop. Enabling it samples every blocking event.
	Block string
	// Mutex receives a contended-mutex profile captured at stop.
	Mutex string
}

// Start begins the configured profilers and returns the function that
// stops them and writes the at-exit profiles. Stop is idempotent and safe
// to both defer and call before os.Exit; with no paths set it is a no-op.
func Start(opts Options) (stop func(), err error) {
	var cpuFile *os.File
	if opts.CPU != "" {
		cpuFile, err = os.Create(opts.CPU)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	if opts.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if opts.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if opts.Mem != "" {
			// Fold in anything still unswept so the numbers match the
			// allocator's view.
			runtime.GC()
			writeProfile("heap", opts.Mem)
		}
		if opts.Block != "" {
			writeProfile("block", opts.Block)
			runtime.SetBlockProfileRate(0)
		}
		if opts.Mutex != "" {
			writeProfile("mutex", opts.Mutex)
			runtime.SetMutexProfileFraction(0)
		}
	}, nil
}

// writeProfile dumps one named runtime profile, reporting failures to
// stderr (profiling must never fail the run it observes).
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "prof: write %s profile: %v\n", name, err)
	}
}
