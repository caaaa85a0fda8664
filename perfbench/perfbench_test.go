package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, defs := range [][]metricDef{endToEnd, extraEndToEnd, perLayer} {
		for _, d := range defs {
			if !validName(d.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.name)
			}
			if !validUnit(d.unit) {
				t.Errorf("unit %q of %s is not [A-Za-z0-9_/%%.-]{1,16}", d.unit, d.name)
			}
			if seen[d.name] {
				t.Errorf("metric %s defined twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("workload name %q is invalid", name)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	if validUnit("") || validUnit("a b") || validUnit(strings.Repeat("s", 17)) {
		t.Error("validUnit accepted an empty, spaced or 17-character unit")
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json names exactly the
// workloads and metrics, with the units, that the program publishes.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1, 0.5, true}, {0, 0.5, false},
		{99, 0.9, false}, {100, 0.9, true},
		{39, 0.75, false}, {40, 0.75, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := tailAllowed(c.n, c.q); got != c.want {
			t.Errorf("tailAllowed(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{10, 0, false}, {40, 0.75, true}, {102, 0.9, true}, {306, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %g, %v, want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(99 - i)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples was not refused")
	}
	if got, err := percentile(append(xs, 0), 0.9); err != nil || math.Abs(got-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, %v; want 89.1", got, err)
	}
	if got := median([]float64{5, 1, 3, 2, 4}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "experiments.fig21", Start: ms(0), End: ms(100)},
		// Two cells overlap on [30, 40]; the third outlives its parent.
		{ID: 2, Parent: 1, Name: "sweep.cell", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "sweep.cell", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Name: "sweep.cell", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 2, Name: "machine.RunContext", Start: ms(15), End: ms(20)},
		{ID: 6, Parent: 2, Name: "machine.New", Start: ms(18), End: ms(25)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 minus the union [10,60] and [90,100] = 100 - 60.
		"experiments.fig21": ms(40),
		// Cell 2 loses the union [15,25] of its children: 30-10 + 30 + 30.
		"sweep.cell":         ms(80),
		"machine.RunContext": ms(5),
		"machine.New":        ms(7),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

// cannedTop is `go tool pprof -top -nodecount=0 -unit=ms` output of a
// profile with an inlined leaf (eventLess), an assembly routine of the
// runtime with no package qualifier (memeqbody), and a function that is
// never a leaf (tRunner).
const cannedTop = `File: perfbench
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 1.51s, Total samples = 1000ms (66.23%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     300ms 30.00% 30.00%      420ms 42.00%  secmgpu/internal/sim.(*Engine).pop
     200ms 20.00% 50.00%      200ms 20.00%  runtime.mallocgc
     120ms 12.00% 62.00%      120ms 12.00%  secmgpu/internal/sim.eventLess (inline)
     100ms 10.00% 72.00%      100ms 10.00%  secmgpu/internal/otp.(*Cached).use
     100ms 10.00% 82.00%      100ms 10.00%  internal/runtime/maps.(*Map).getWithKey
     100ms 10.00% 92.00%      100ms 10.00%  memeqbody
      80ms  8.00%   100%       80ms  8.00%  net/http.(*conn).serve
         0     0%   100%      920ms 92.00%  testing.tRunner
`

func TestProfileByPackage(t *testing.T) {
	byFunc, err := parseTop([]byte(cannedTop))
	if err != nil {
		t.Fatal(err)
	}
	if len(byFunc) != 8 || byFunc["secmgpu/internal/sim.eventLess"] != 120 || byFunc["testing.tRunner"] != 0 {
		t.Errorf("parsed %v", byFunc)
	}
	l := byLayer(byFunc)
	if l.total != 1000 || l.samples() != 100 {
		t.Errorf("total %v ms, %d samples; want 1000 ms, 100 samples", l.total, l.samples())
	}
	for layer, share := range map[string]float64{"sim": 0.42, "otp": 0.1, "runtime": 0.4, "net/http": 0.08, "mem": 0} {
		if got := l.share(layer); math.Abs(got-share) > 1e-12 {
			t.Errorf("share(%s) = %v, want %v", layer, got, share)
		}
	}
	if got, want := l.summary(), "sim=42.0% runtime=40.0% otp=10.0% net/http=8.0% rest=0.0%"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
	for fn, pkg := range map[string]string{
		"secmgpu/internal/sim.(*Engine).Run": "secmgpu/internal/sim",
		"runtime.mallocgc":                   "runtime",
		"internal/runtime/maps.(*Map).Get":   "internal/runtime/maps",
		"main.main":                          "main",
		"aeshashbody":                        "runtime",
	} {
		if got := packageOf(fn); got != pkg {
			t.Errorf("packageOf(%s) = %s, want %s", fn, got, pkg)
		}
	}
	for _, bad := range []string{"no table here\n", "      flat  flat%   sum%        cum   cum%\n     1.20s 12% 12% 2s 20%  sim.Run\n"} {
		if _, err := parseTop([]byte(bad)); err == nil {
			t.Errorf("parseTop accepted %q", bad)
		}
	}
}

// runResult runs the benchmark in-process and decodes its result line.
func runResult(t *testing.T, o options) (resultLine, string) {
	t.Helper()
	o.procStart = time.Now()
	var out, errb bytes.Buffer
	code := execute(o, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%+v: last line is not a result: %v\n%s%s", o, err, out.String(), errb.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%+v: exit %d, result %+v\n%s%s", o, code, res, out.String(), errb.String())
	}
	return res, out.String()
}

// smoke is a run of workload w at a tiny scale.
func smoke(w string, seed int64) options {
	return options{workload: w, seed: seed, seconds: 0.1, scale: 0.01}
}

// TestSmoke runs every workload at a tiny scale, set-up only, untraced
// and traced, and requires its output checks to pass and its result line
// to carry exactly the published metrics.
func TestSmoke(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		for _, mode := range []string{"setup-only", "trace0", "trace1"} {
			t.Run(w+"/"+mode, func(t *testing.T) {
				o := smoke(w, 3)
				defs := endToEnd
				switch mode {
				case "setup-only":
					o.setupOnly, defs = true, setupOnly
				case "trace1":
					o.trace, defs = true, perLayer
				}
				res, _ := runResult(t, o)
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics published, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, present %v, want unit %s", d.name, m, ok, d.unit)
					}
					if !o.trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestTracedCountsRepeat: the per-layer counts taken from machine.Result
// are identical across two traced runs of one seed.
func TestTracedCountsRepeat(t *testing.T) {
	o := smoke("fig25-16gpu", 5)
	o.trace = true
	a, _ := runResult(t, o)
	b, _ := runResult(t, o)
	for _, name := range []string{"machine.sim_cycles", "machine.migrations", "workload.ops", "interconnect.base_bytes",
		"interconnect.meta_bytes", "interconnect.memprot_bytes", "secure.data_sent", "secure.acks_sent",
		"secure.batch_macs_sent", "secure.batches_verified", "secure.timeout_flushes", "otp.send_hit_frac", "otp.recv_miss_frac"} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
	if a.Metrics["workload.ops"].Value == 0 {
		t.Error("traced run counted no operations")
	}
	if a.Metrics["sim.cpu_share"].Value == 0 {
		t.Error("traced run attributed no CPU time to sim")
	}
}

// TestArguments: bad arguments exit 2 without running a workload.
func TestArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fig21-sweep", "-seconds", "0"},
		{"-workload", "fig21-sweep", "-trace", "2"},
		{"-workload", "fig21-sweep", "-trace", "1", "-setup-only"},
		{"-workload", "fig21-sweep", "-scale", "0.01"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, printed %q", args, code, out.String())
		}
	}
}
