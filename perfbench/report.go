package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"sort"
)

// metricDef names one metric the benchmark publishes and fixes its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator or of the campaign
// service sees, measured with tracing off. Every workload reports every
// one of them (see README.md for the per-workload definitions), because
// a regression gate compares each (workload, metric) pair.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"sim_ops_per_s", "ops/s"},
	{"tables_cold_p50_s", "s"},
	{"tables_warm_p50_s", "s"},
}

// setupOnly is what a -setup-only run publishes.
var setupOnly = endToEnd[:1]

// extraEndToEnd are end-to-end metrics printed by name with their sample
// count but not published on the result line: they exist on only some
// workloads, or they read 0 on correct code (fail_frac), so a per-pair
// regression bound cannot apply to them.
var extraEndToEnd = []metricDef{
	{"cell_p50_s", "s"},
	{"cell_p90_s", "s"},
	{"fail_frac", "ratio"},
	{"paper_abs_err", "ratio"},
}

// perLayer are the traced run's per-layer metrics. A metric whose layer
// the workload never reaches reads 0 (the sweeps make no HTTP calls; the
// campaign workload's simulations run inside campaign.Worker, out of
// reach of the benchmark's spans).
var perLayer = []metricDef{
	{"sim.cpu_share", "share"},
	{"machine.new_s", "s"},
	{"machine.run_s", "s"},
	{"machine.run_ns_per_op", "ns/op"},
	{"machine.cpu_share", "share"},
	{"machine.sim_cycles", "cycles"},
	{"machine.migrations", "count"},
	{"workload.traces_s", "s"},
	{"workload.ops", "count"},
	{"interconnect.cpu_share", "share"},
	{"interconnect.base_bytes", "bytes"},
	{"interconnect.meta_bytes", "bytes"},
	{"interconnect.memprot_bytes", "bytes"},
	{"secure.cpu_share", "share"},
	{"core.cpu_share", "share"},
	{"crypto.cpu_share", "share"},
	{"secure.data_sent", "count"},
	{"secure.acks_sent", "count"},
	{"secure.batch_macs_sent", "count"},
	{"secure.batches_verified", "count"},
	{"secure.timeout_flushes", "count"},
	{"otp.cpu_share", "share"},
	{"otp.send_hit_frac", "ratio"},
	{"otp.send_miss_frac", "ratio"},
	{"otp.recv_hit_frac", "ratio"},
	{"otp.recv_miss_frac", "ratio"},
	{"mem.cpu_share", "share"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.mallocs_per_op", "objects/op"},
	{"sweep.cells", "count"},
	{"sweep.simulated", "count"},
	{"sweep.cache_hits", "count"},
	{"sweep.store_hits", "count"},
	{"sweep.failed", "count"},
	{"sweep.dedup_frac", "ratio"},
	{"sweep.slot_idle_frac", "ratio"},
	{"experiments.fig21.run_s", "s"},
	{"experiments.fig25.run_s", "s"},
	{"store.puts", "count"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.put_p50_s", "s"},
	{"store.get_p50_s", "s"},
	{"campaign.lease_rtt_p50_s", "s"},
	{"campaign.lease_empty_frac", "ratio"},
	{"campaign.complete_rtt_p50_s", "s"},
	{"campaign.submit_rtt_p50_s", "s"},
	{"campaign.status_rtt_p50_s", "s"},
	{"campaign.requests", "count"},
	{"campaign.queue_wait_p50_ms", "ms"},
	{"campaign.lease_p50_ms", "ms"},
	{"campaign.worker_idle_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name: a
// letter or digit, then at most 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal unit: 1 to 16 letters, digits,
// '_', '/', '%', '.' or '-'.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// minBeyond is how many samples must lie beyond a reported tail
// percentile; with fewer, the tail is an artefact of one or two outliers.
const minBeyond = 10

// tailAllowed reports whether the q-quantile of n samples may be
// reported: the median always can, a tail percentile only with at least
// minBeyond samples beyond it, so p90 needs 100 samples. The test runs
// on per-mille integers so that 100 samples exactly admit p90.
func tailAllowed(n int, q float64) bool {
	pm := int(math.Round(q * 1000))
	if pm <= 500 {
		return n > 0
	}
	return n*(1000-pm) >= minBeyond*1000
}

// highestTail returns the highest of the usual tail percentiles that n
// samples support, or false when not even p75 has minBeyond beyond it.
func highestTail(n int) (float64, bool) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if tailAllowed(n, q) {
			return q, true
		}
	}
	return 0, false
}

// percentile returns the q-quantile of xs by linear interpolation between
// closest ranks, refusing a tail that tailAllowed rejects.
func percentile(xs []float64, q float64) (float64, error) {
	if !tailAllowed(len(xs), q) {
		return 0, fmt.Errorf("p%g refused: %d samples leave fewer than %d beyond it", q*100, len(xs), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

// median is percentile(xs, 0.5), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v    float64
	n    int
	note string
}

// report is one workload run's outcome: its metrics, its operation
// counts, and the lines that explain them.
type report struct {
	workload  string
	attempted int
	failed    int
	values    map[string]value
	lines     []string
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]value)}
}

// set records a metric measured over n samples.
func (r *report) set(name string, v float64, n int) { r.values[name] = value{v: v, n: n} }

// setNote records a metric with a qualifier printed beside it.
func (r *report) setNote(name string, v float64, n int, note string) {
	r.values[name] = value{v: v, n: n, note: note}
}

// timing records the median of a timing's samples, noting its quartiles
// and the highest tail percentile the sample count supports.
func (r *report) timing(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	note := fmt.Sprintf("min=%.4g", slices.Min(xs))
	if q, ok := highestTail(len(xs)); ok {
		p, _ := percentile(xs, q)
		note += fmt.Sprintf(" p%g=%.4g", q*100, p)
	}
	r.setNote(name, median(xs), len(xs), note+fmt.Sprintf(" max=%.4g", slices.Max(xs)))
}

// logf adds an explanatory line to the printed report.
func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check counts one correctness operation, failing it with a reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.logf("FAIL "+format, args...)
	}
}

// correct reports whether every attempted operation succeeded.
func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// resultLine is the JSON object printed as the last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// published returns the metrics of the result line, those of defs. A
// missing end-to-end metric is an error; a per-layer metric the workload
// does not reach reads 0.
func (r *report) published(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && slices.Contains(endToEnd, d) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metricValue{Value: v.v, Unit: d.unit}
	}
	return out, nil
}

// write prints the human-readable report followed by the result line,
// which carries the metrics of defs.
func (r *report) write(w io.Writer, defs []metricDef) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	r.writeSection(w, "end-to-end", endToEnd)
	r.writeSection(w, "end-to-end, printed only", extraEndToEnd)
	r.writeSection(w, "per-layer", perLayer)
	m, err := r.published(defs)
	if err != nil {
		r.check(false, "%v", err)
		fmt.Fprintf(w, "FAIL %v\n", err)
		m = map[string]metricValue{}
	}
	b, err := json.Marshal(resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeSection prints the measured metrics of defs, one line each, under
// a title line; it prints nothing when none of them was measured.
func (r *report) writeSection(w io.Writer, title string, defs []metricDef) {
	titled := false
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			continue
		}
		if !titled {
			fmt.Fprintf(w, "-- %s metrics (%s)\n", title, r.workload)
			titled = true
		}
		note := ""
		if v.note != "" {
			note = "  " + v.note
		}
		fmt.Fprintf(w, "metric %-28s %14.6g %-10s n=%d%s\n", d.name, v.v, d.unit, v.n, note)
	}
}
