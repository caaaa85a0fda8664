package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// cpuProfile records a CPU profile over several intervals, one file each
// in the temporary directory, and attributes the samples by package with
// `go tool pprof`.
type cpuProfile struct {
	f     *os.File
	files []string
}

// start begins a profiled interval.
func (p *cpuProfile) start() error {
	f, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return err
	}
	p.f = f
	p.files = append(p.files, f.Name())
	return pprof.StartCPUProfile(f)
}

// stop ends the interval.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// layers merges the intervals' profiles with `go tool pprof -top` and
// removes their files.
func (p *cpuProfile) layers(ctx context.Context) (layerSamples, error) {
	defer func() {
		for _, f := range p.files {
			os.Remove(f)
		}
	}()
	if len(p.files) == 0 {
		return layerSamples{}, fmt.Errorf("no profiled interval")
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0", "-unit=ms"}, p.files...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+os.TempDir())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return layerSamples{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byFunc, err := parseTop(out)
	if err != nil {
		return layerSamples{}, err
	}
	return byLayer(byFunc), nil
}

// reportShares publishes each simulator layer's share of the profiled
// CPU time.
func reportShares(ctx context.Context, rep *report, p *cpuProfile) {
	l, err := p.layers(ctx)
	rep.check(err == nil, "cpu profile: %v", err)
	if err != nil {
		return
	}
	for _, name := range []string{"sim", "machine", "interconnect", "secure", "core", "crypto", "otp", "mem"} {
		rep.setNote(name+".cpu_share", l.share(name), l.samples(), "sampled")
	}
	rep.logf("cpu profile by layer (sampled, leaf frames, %d samples): %s", l.samples(), l.summary())
}

// parseTop reads the flat column of `go tool pprof -top -unit=ms`: the
// CPU time, in milliseconds, of the samples whose leaf frame is each
// function. pprof lists an inlined function as a function of its own, so
// the leaf is the innermost inlined frame.
func parseTop(out []byte) (map[string]float64, error) {
	byFunc := make(map[string]float64)
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof -top: unexpected line %q", sc.Text())
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil || (f[0] != "0" && !strings.HasSuffix(f[0], "ms")) {
			return nil, fmt.Errorf("pprof -top: flat value %q is not in ms", f[0])
		}
		byFunc[f[5]] += ms
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no table in the output")
	}
	return byFunc, sc.Err()
}

// packageOf returns the import path of a Go function symbol:
// "secmgpu/internal/sim.(*Engine).Run" -> "secmgpu/internal/sim". A
// symbol with no package qualifier ("aeshashbody", "memeqbody") is one
// of the runtime's assembly routines.
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}

// layerOf maps a package to the layer name the metrics use: the
// repository's internal packages by their short name, every part of the
// Go runtime as "runtime", any other package by its import path.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "secmgpu/internal/"):
		return strings.TrimPrefix(pkg, "secmgpu/internal/")
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// layerSamples is sampled CPU time per layer.
type layerSamples struct {
	ms    map[string]float64
	total float64
}

// byLayer folds per-function CPU time into per-layer CPU time.
func byLayer(byFunc map[string]float64) layerSamples {
	l := layerSamples{ms: make(map[string]float64)}
	for fn, ms := range byFunc {
		l.ms[layerOf(packageOf(fn))] += ms
		l.total += ms
	}
	return l
}

// samples is the number of profile samples behind l, at the CPU
// profiler's 100 Hz.
func (l layerSamples) samples() int { return int(l.total / 10) }

// share is the fraction of sampled CPU whose leaf frame is in layer.
func (l layerSamples) share(layer string) float64 {
	if l.total == 0 {
		return 0
	}
	return l.ms[layer] / l.total
}

// summary lists the layers with at least 1% of the samples by descending
// share, then the sum of the rest.
func (l layerSamples) summary() string {
	names := sortedKeys(l.ms)
	sort.SliceStable(names, func(i, j int) bool { return l.ms[names[i]] > l.ms[names[j]] })
	var b strings.Builder
	var rest float64
	for _, name := range names {
		if 100*l.ms[name] < l.total {
			rest += l.ms[name]
			continue
		}
		fmt.Fprintf(&b, " %s=%.1f%%", name, 100*l.share(name))
	}
	fmt.Fprintf(&b, " rest=%.1f%%", 100*rest/max(l.total, 1))
	return strings.TrimSpace(b.String())
}
