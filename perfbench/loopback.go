package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"secmgpu/internal/campaign"
	"secmgpu/internal/experiments"
	"secmgpu/internal/metrics"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// The campaign-loopback workload: the ROADMAP's submit→tables path.
var (
	loopExperiments = []string{"fig9", "fig21"}
	loopWorkloads   = []string{"syr2k", "mm", "aes"}
)

const (
	loopScale = 0.05
	// warmResubmits is how many times each cold campaign is resubmitted;
	// each resubmission is served from the store and is one
	// tables_warm_p50_s sample.
	warmResubmits = 5
	// The client polls status every pollFine for the first fineFor after
	// submitting, then every pollCoarse: a warm campaign (tens of ms) is
	// resolved to about a millisecond, and a cold one (over a second)
	// gains at most pollCoarse of client-side delay without the client
	// competing with the worker for the CPU.
	pollFine   = time.Millisecond
	fineFor    = 100 * time.Millisecond
	pollCoarse = 10 * time.Millisecond
)

// service is an in-process coordinator served over loopback HTTP, with
// its workers and one submitting client.
type service struct {
	dir    string
	st     *store.Store
	coord  *campaign.Coordinator
	srv    *http.Server
	client *campaign.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// Set in traced runs only: the per-client timing transports and the
	// switch that turns their recording on.
	on      atomic.Bool
	clientT *timedTransport
	workerT []*timedTransport
}

// newTransport is a plain HTTP transport capped at one connection.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

// startService opens a store in a fresh temp directory, starts a
// coordinator on it, serves it on a loopback port and starts nWorkers
// workers with default options. A non-nil rec wraps every client's
// transport in a timedTransport.
func startService(nWorkers int, rec *Recorder) (*service, error) {
	s := &service{}
	var err error
	if s.dir, err = os.MkdirTemp("", "perfbench-store-"); err != nil {
		return nil, err
	}
	if s.st, err = store.Open(s.dir, store.Options{SimDigest: store.BinaryDigest()}); err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.coord = campaign.NewCoordinator(campaign.Options{Store: s.st})
	s.srv = &http.Server{Handler: s.coord.Handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	url := "http://" + ln.Addr().String()
	client := func(group string) (*campaign.Client, *timedTransport) {
		var rt http.RoundTripper = newTransport()
		var tt *timedTransport
		if rec != nil {
			tt = &timedTransport{base: rt, rec: rec, group: group, on: &s.on}
			rt = tt
		}
		return campaign.NewClient(url, &http.Client{Transport: rt, Timeout: time.Minute}), tt
	}
	s.client, s.clientT = client("client")
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < nWorkers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		cl, tt := client(name)
		if tt != nil {
			s.workerT = append(s.workerT, tt)
		}
		w := campaign.NewWorker(cl, campaign.WorkerOptions{Name: name})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(ctx) // returns ctx.Err() once close cancels it
		}()
	}
	return s, nil
}

// close stops the workers, the server and the coordinator, waits for
// their goroutines and removes the store.
func (s *service) close() {
	s.cancel()
	shutdown, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(shutdown)
	s.wg.Wait()
	s.coord.Close()
	os.RemoveAll(s.dir)
}

// campaignRun is one submission's outcome as the client saw it.
type campaignRun struct {
	d      time.Duration
	status campaign.Status
	tables []campaign.TableResult
}

// run submits spec and polls until the campaign is terminal, then
// fetches its tables: one closed-loop request.
func (s *service) run(ctx context.Context, spec campaign.Spec) (campaignRun, error) {
	t0 := time.Now()
	st, err := s.client.Submit(ctx, spec)
	if err != nil {
		return campaignRun{}, fmt.Errorf("submit: %w", err)
	}
	for !st.State.Terminal() {
		poll := pollFine
		if time.Since(t0) > fineFor {
			poll = pollCoarse
		}
		select {
		case <-ctx.Done():
			return campaignRun{}, ctx.Err()
		case <-time.After(poll):
		}
		if st, err = s.client.Campaign(ctx, st.ID); err != nil {
			return campaignRun{}, fmt.Errorf("status: %w", err)
		}
	}
	tables, err := s.client.Tables(ctx, st.ID)
	if err != nil {
		return campaignRun{}, fmt.Errorf("tables: %w", err)
	}
	return campaignRun{d: time.Since(t0), status: st, tables: tables}, nil
}

func loopSpec(seed int64, scale float64) campaign.Spec {
	return campaign.Spec{Experiments: loopExperiments, Workloads: loopWorkloads, GPUs: 4, Scale: scale, Seed: seed}
}

// loopTrace accumulates the traced campaigns' evidence.
type loopTrace struct {
	rec   *Recorder
	prof  cpuProfile
	rt    runtimeSample
	wall  time.Duration // summed wall time of the traced pairs
	pairs int
	ids   map[string]bool
	cells campaign.CellProgress
	store store.Stats
}

func runLoopback(ctx context.Context, o options) *report {
	rep := newReport("campaign-loopback")
	scale := loopScale
	if o.scale > 0 {
		scale = o.scale
	}
	nWorkers := max(1, runtime.GOMAXPROCS(0)-1)
	var tr *loopTrace
	if o.trace {
		tr = &loopTrace{rec: newRecorder(), ids: make(map[string]bool)}
	}

	// Set-up, timed from process start: store, coordinator, server,
	// workers, and one small warm-up campaign on cells the timed phase
	// never asks for (another scale).
	svc, err := startService(nWorkers, tr.recorder())
	if err != nil {
		rep.check(false, "start service: %v", err)
		return rep
	}
	defer svc.close()
	warmSpec := loopSpec(o.seed, scale/5)
	warmSpec.Experiments, warmSpec.Workloads = []string{"fig9"}, []string{"mm"}
	r, err := svc.run(ctx, warmSpec)
	rep.check(err == nil && r.status.State == campaign.StateDone, "warm-up campaign: err=%v state=%s", err, r.status.State)
	if rep.failed > 0 {
		return rep
	}
	rep.set("setup_s", time.Since(o.procStart).Seconds(), 1)
	if o.setupOnly {
		return rep
	}
	rep.logf("service: %d worker(s), 1 closed-loop client, %d warm resubmissions per cold campaign", nWorkers, warmResubmits)

	type coldRun struct {
		seed   int64
		traced bool
		runs   []campaignRun // the cold submission, then the warm ones
	}
	var colds []coldRun
	var cold, coldTraced, warm []float64
	deadline := time.Now().Add(o.duration())
	for i := 0; i < o.minPasses() || time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			rep.check(false, "campaign %d: %v", i, ctx.Err())
			break
		}
		traced := tr != nil && i%2 == 1
		c := coldRun{seed: o.seed + int64(i), traced: traced}
		spec := loopSpec(c.seed, scale)
		var rt0 runtimeSample
		var st0 store.Stats
		var pair int
		t0 := time.Now()
		if traced {
			pair = tr.rec.Start("campaign.pair", 0, fmt.Sprintf("seed%d", c.seed))
			svc.clientT.parent.Store(int64(pair))
			if err := tr.prof.start(); err != nil {
				rep.check(false, "cpu profile: %v", err)
			}
			rt0, st0 = readRuntime(), svc.st.Stats()
			svc.on.Store(true)
		}
		for r := 0; r <= warmResubmits; r++ {
			res, err := svc.run(ctx, spec)
			ok := err == nil && res.status.State == campaign.StateDone && res.status.Cells.Failed == 0 && len(res.tables) == len(loopExperiments)
			kind := "cold"
			if r > 0 {
				kind = "warm"
				ok = ok && res.status.Cells.Delegated == 0
			}
			rep.check(ok, "%s campaign seed %d: err=%v state=%s cells=%+v tables=%d", kind, c.seed, err, res.status.State, res.status.Cells, len(res.tables))
			if err != nil {
				break
			}
			c.runs = append(c.runs, res)
			switch {
			case r > 0 && !traced:
				warm = append(warm, res.d.Seconds())
			case r == 0 && traced:
				coldTraced = append(coldTraced, res.d.Seconds())
			case r == 0:
				cold = append(cold, res.d.Seconds())
			}
			if traced {
				tr.ids[res.status.ID] = true
				cp := res.status.Cells
				tr.cells.Delegated += cp.Delegated
				tr.cells.Completed += cp.Completed
				tr.cells.Failed += cp.Failed
				tr.cells.CacheHits += cp.CacheHits
				tr.cells.StoreHits += cp.StoreHits
			}
		}
		if traced {
			svc.on.Store(false)
			st1 := svc.st.Stats()
			tr.store.Puts += st1.Puts - st0.Puts
			tr.store.Hits += st1.Hits - st0.Hits
			tr.store.Misses += st1.Misses - st0.Misses
			tr.rt.add(rt0, readRuntime())
			if err := tr.prof.stop(); err != nil {
				rep.check(false, "cpu profile: %v", err)
			}
			tr.rec.End(pair)
			tr.wall += time.Since(t0)
			tr.pairs++
		}
		colds = append(colds, c)
	}
	rep.setNote("peak_rss_mb", peakRSSMiB(), 1, "process peak resident set at the end of the timed phase")

	// Reference: each spec solo, in-process, on a fresh engine whose
	// simulator counts operations. Every cold and warm table must equal
	// it byte for byte.
	var opsUntraced, opsTraced float64
	var replay *cellLog
	for ci, c := range colds {
		log := &cellLog{}
		eng := sweep.New(0)
		eng.SetSimulator(countingSimulator(ctx, log))
		p := experiments.Params{GPUs: 4, Scale: scale, Seed: c.seed, Workloads: loopWorkloads, Engine: eng}
		want := make(map[string]string)
		for _, name := range loopExperiments {
			runner, err := experiments.Lookup(name)
			if err == nil {
				var t *experiments.Table
				if t, err = runner(ctx, p); err == nil {
					want[name] = t.CSV()
				}
			}
			rep.check(err == nil, "reference %s seed %d: %v", name, c.seed, err)
		}
		for ri, r := range c.runs {
			for _, t := range r.tables {
				rep.check(t.CSV == want[t.Name], "campaign seed %d submission %d: table %s differs from the solo run (sha256 %s vs %s)", c.seed, ri, t.Name, csvDigest(t.CSV), csvDigest(want[t.Name]))
			}
		}
		for _, name := range loopExperiments {
			rep.logf("table %s seed=%d scale=%g sha256=%s", name, c.seed, scale, csvDigest(want[name]))
		}
		if c.traced {
			opsTraced += float64(log.ops())
		} else {
			opsUntraced += float64(log.ops())
		}
		if ci == 0 {
			replay = log
		}
	}

	rep.timing("tables_cold_p50_s", cold)
	rep.timing("tables_warm_p50_s", warm)
	var coldSum float64
	for _, c := range cold {
		coldSum += c
	}
	if coldSum > 0 {
		rep.setNote("sim_ops_per_s", opsUntraced/coldSum, len(cold), "ops of the cold campaigns' cells per second of their submit->tables time")
	}
	rep.set("fail_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)

	if tr != nil {
		tr.report(ctx, rep, o, svc, nWorkers, opsTraced, cold, coldTraced, replay)
	}
	return rep
}

// recorder returns the trace's span recorder, nil when untraced.
func (tr *loopTrace) recorder() *Recorder {
	if tr == nil {
		return nil
	}
	return tr.rec
}

// report turns the traced campaigns' evidence into per-layer metrics.
func (tr *loopTrace) report(ctx context.Context, rep *report, o options, svc *service, nWorkers int, ops float64, cold, coldTraced []float64, replay *cellLog) {
	if tr.pairs == 0 {
		rep.check(false, "traced run measured no campaign")
		return
	}
	reportShares(ctx, rep, &tr.prof)
	if tr.rt.totalCPU > 0 {
		rep.setNote("runtime.gc_cpu_share", tr.rt.gcCPU/tr.rt.totalCPU, 1, "runtime/metrics estimate")
	}
	if ops > 0 {
		rep.set("runtime.alloc_bytes_per_op", float64(tr.rt.allocBytes)/ops, tr.pairs)
		rep.set("runtime.mallocs_per_op", float64(tr.rt.allocObjects)/ops, tr.pairs)
	}

	pairs := float64(tr.pairs)
	note := fmt.Sprintf("per cold+%d warm submissions", warmResubmits)
	cp := tr.cells
	cells := cp.Delegated + cp.CacheHits + cp.StoreHits
	rep.setNote("sweep.cells", float64(cells)/pairs, tr.pairs, note)
	rep.setNote("sweep.simulated", float64(cp.Completed)/pairs, tr.pairs, note)
	rep.setNote("sweep.cache_hits", float64(cp.CacheHits)/pairs, tr.pairs, note)
	rep.setNote("sweep.store_hits", float64(cp.StoreHits)/pairs, tr.pairs, note)
	rep.setNote("sweep.failed", float64(cp.Failed)/pairs, tr.pairs, note)
	if cells > 0 {
		rep.set("sweep.dedup_frac", float64(cp.CacheHits+cp.StoreHits)/float64(cells), tr.pairs)
	}
	rep.setNote("store.puts", float64(tr.store.Puts)/pairs, tr.pairs, note)
	rep.setNote("store.hits", float64(tr.store.Hits)/pairs, tr.pairs, note)
	rep.setNote("store.misses", float64(tr.store.Misses)/pairs, tr.pairs, note)
	replayStore(rep, replay)

	spans := tr.rec.Spans()
	for _, ep := range []string{"lease", "complete", "submit", "status"} {
		d := durations(spans, "campaign."+ep)
		rep.set("campaign."+ep+"_rtt_p50_s", median(d), len(d))
	}
	var leases, empty, requests int
	var busy time.Duration
	for _, t := range append([]*timedTransport{svc.clientT}, svc.workerT...) {
		t.mu.Lock()
		leases += t.leases
		empty += t.emptyLeases
		requests += t.requests
		busy += t.busy
		t.mu.Unlock()
	}
	if leases > 0 {
		rep.set("campaign.lease_empty_frac", float64(empty)/float64(leases), leases)
	}
	rep.setNote("campaign.requests", float64(requests)/pairs, tr.pairs, note)
	rep.setNote("campaign.worker_idle_frac", 1-busy.Seconds()/(tr.wall.Seconds()*float64(nWorkers)), nWorkers, "lease grant to publish, from the workers' transports")

	if h, err := svc.client.Health(ctx); err != nil {
		rep.check(false, "healthz: %v", err)
	} else {
		var wait, lease *metrics.Histogram
		for _, l := range h.Latency {
			if !tr.ids[l.Campaign] {
				continue
			}
			if wait == nil {
				wait, lease = l.WaitMS.Clone(), l.LeaseMS.Clone()
			} else {
				wait.Merge(l.WaitMS)
				lease.Merge(l.LeaseMS)
			}
		}
		if wait != nil {
			rep.setNote("campaign.queue_wait_p50_ms", histP50(wait), int(wait.Total()), "bucketed, interpolated")
			rep.setNote("campaign.lease_p50_ms", histP50(lease), int(lease.Total()), "bucketed, interpolated")
		}
	}
	if len(cold) > 0 && len(coldTraced) > 0 {
		rep.set("trace.overhead_frac", median(coldTraced)/median(cold)-1, len(coldTraced))
	}
	logSelfTimes(rep, spans)
	if o.spans != "" {
		if err := tr.rec.WriteFile(o.spans); err != nil {
			rep.check(false, "write spans: %v", err)
		}
	}
}

// histP50 estimates a bucketed histogram's median by linear
// interpolation inside the bucket that holds it. The bucket bounds are
// exported only through the histogram's JSON form.
func histP50(h *metrics.Histogram) float64 {
	var d struct {
		Bounds []float64 `json:"bounds"`
		Counts []float64 `json:"counts"`
		Total  float64   `json:"total"`
	}
	b, err := json.Marshal(h)
	if err == nil {
		err = json.Unmarshal(b, &d)
	}
	if err != nil || d.Total == 0 {
		return 0
	}
	half := d.Total / 2
	var cum, lo float64
	for i, c := range d.Counts {
		hi := lo
		if i < len(d.Bounds) {
			hi = d.Bounds[i]
		}
		if cum+c >= half && c > 0 {
			return lo + (hi-lo)*(half-cum)/c
		}
		cum += c
		lo = hi
	}
	return lo
}
