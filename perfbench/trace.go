package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secmgpu/internal/machine"
	"secmgpu/internal/sweep"
	"secmgpu/internal/workload"
)

// Span is one timed call across a layer boundary. Spans of one cell or
// one campaign share a Group; Parent is the ID of the span that caused
// it (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Group  string `json:"group"`
	// Start and End are nanoseconds since the recorder was created.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil *Recorder records nothing.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID.
func (r *Recorder) Start(name string, parent int, group string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Group: group, Start: now, End: -1})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the closed spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durations returns the durations in seconds of the spans named name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part of it that the union of its children
// covers. Children may overlap (cells of one sweep run in parallel), so
// overlapping intervals count once, and a child that outlives its parent
// counts only inside the parent.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent span.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.a <= cur.b:
			cur.b = max(cur.b, x.b)
		default:
			total += cur.b - cur.a
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// cellLog collects the results of the cells one sweep engine simulated,
// with their store key digests.
type cellLog struct {
	mu      sync.Mutex
	keys    []string
	results []*machine.Result
}

func (l *cellLog) add(c sweep.Cell, res *machine.Result) {
	key := c.Key().Digest()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys = append(l.keys, key)
	l.results = append(l.results, res)
}

// ops is the total of Result.Ops over the logged cells.
func (l *cellLog) ops() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, r := range l.results {
		n += r.Ops
	}
	return n
}

// countingSimulator is sweep.SimulateContext plus a log of each result.
// Reference runs use it to count the simulated operations a pass retires
// without timing anything.
func countingSimulator(ctx context.Context, log *cellLog) func(sweep.Cell) (*machine.Result, error) {
	return func(c sweep.Cell) (*machine.Result, error) {
		res, err := sweep.SimulateContext(ctx, c)
		if err == nil {
			log.add(c, res)
		}
		return res, err
	}
}

// tracedSimulator makes exactly the calls sweep.SimulateContext makes,
// with a span around each: the cell, workload.Traces, machine.New and
// System.RunContext.
func tracedSimulator(ctx context.Context, rec *Recorder, parent int, pass string, log *cellLog) func(sweep.Cell) (*machine.Result, error) {
	return func(c sweep.Cell) (*machine.Result, error) {
		group := pass + "/" + c.Label
		cell := rec.Start("sweep.cell", parent, group)
		defer rec.End(cell)
		sp := rec.Start("workload.Traces", cell, group)
		traces := workload.Traces(c.Spec, c.Cfg.NumGPUs, c.Cfg.Scale, c.Cfg.Seed)
		rec.End(sp)
		sp = rec.Start("machine.New", cell, group)
		sys, err := machine.New(c.Cfg, traces, c.Opt)
		rec.End(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.Start("machine.RunContext", cell, group)
		res, err := sys.RunContext(ctx)
		rec.End(sp)
		if err == nil {
			log.add(c, res)
		}
		return res, err
	}
}

// endpoint names the campaign API call a request makes.
func endpoint(method, path string) string {
	p := strings.TrimPrefix(path, "/v1/")
	switch {
	case p == "campaigns" && method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(p, "/tables"):
		return "tables"
	case strings.HasPrefix(p, "campaigns/") && method == http.MethodGet:
		return "status"
	case p == "lease":
		return "lease"
	case strings.HasPrefix(p, "lease/"):
		return p[strings.LastIndex(p, "/")+1:] // renew, complete, fail
	case p == "healthz":
		return "healthz"
	}
	return "other"
}

// timedTransport records a span per request while on is set; with it
// clear it adds one atomic load to a plain transport. A worker's
// transport also accumulates the time between a granted lease and the
// publish that ends it, the worker's busy time.
type timedTransport struct {
	base   http.RoundTripper
	rec    *Recorder
	group  string
	on     *atomic.Bool
	parent atomic.Int64 // span the next requests belong to (client only)

	mu          sync.Mutex
	grantedAt   time.Time
	busy        time.Duration
	leases      int
	emptyLeases int
	requests    int
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.base.RoundTrip(req)
	}
	ep := endpoint(req.Method, req.URL.Path)
	start := time.Now()
	id := t.rec.Start("campaign."+ep, int(t.parent.Load()), t.group)
	resp, err := t.base.RoundTrip(req)
	t.rec.End(id)
	end := time.Now()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	switch ep {
	case "lease":
		t.leases++
		if err == nil && resp.StatusCode == http.StatusNoContent {
			t.emptyLeases++
		} else if err == nil && resp.StatusCode == http.StatusOK {
			t.grantedAt = end
		}
	case "complete", "fail":
		if !t.grantedAt.IsZero() {
			t.busy += start.Sub(t.grantedAt)
			t.grantedAt = time.Time{}
		}
	}
	return resp, err
}

// runtimeSample reads the Go runtime's cumulative GC CPU, total CPU,
// allocated bytes and allocated objects.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjects    uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), totalCPU: f(1), allocBytes: u(2), allocObjects: u(3)}
}

// add accumulates the delta between two samples.
func (a *runtimeSample) add(before, after runtimeSample) {
	a.gcCPU += after.gcCPU - before.gcCPU
	a.totalCPU += after.totalCPU - before.totalCPU
	a.allocBytes += after.allocBytes - before.allocBytes
	a.allocObjects += after.allocObjects - before.allocObjects
}
