package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/otp"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// sweepWorkload is one figure regenerated in-process by the experiments
// runner on a fresh sweep.Engine per pass.
type sweepWorkload struct {
	name       string
	experiment string
	gpus       int
	workloads  []string // nil = all 17 Table IV workloads
	scale      float64
	par        int // cell parallelism
	// refWorkers is the kernel of the post-phase reference pass: 1 forces
	// the sequential kernel, so a pass whose auto-selected kernel was the
	// partitioned one is checked against the sequential order.
	refWorkers int
	// golden maps a seed to the sha256 of the table's CSV at the default
	// scale, as pinned by the repository's golden test.
	golden map[int64]string
}

// warmReps is how many times each pass regenerates the figure from the
// engine that already holds every cell; each rerun (well under a
// millisecond) is one tables_warm_p50_s sample.
const warmReps = 20

// goldenFig21 is TestGoldenFig21Digest's scale-0.10, seed-1 digest.
const goldenFig21 = "5e52704c792b0e7b8bd65c5a716c8af9a6f270625e712f5f97d6de6728ee30fd"

func fig21Sweep() sweepWorkload {
	return sweepWorkload{
		name: "fig21-sweep", experiment: "fig21", gpus: 4, scale: 0.10,
		par: runtime.GOMAXPROCS(0), golden: map[int64]string{1: goldenFig21},
	}
}

func fig25Sweep() sweepWorkload {
	return sweepWorkload{
		name: "fig25-16gpu", experiment: "fig25", gpus: 16, scale: 0.10,
		workloads: []string{"syr2k", "mt", "mm", "aes"}, par: 1, refWorkers: 1,
	}
}

// paperAvg holds the paper's printed average normalized execution time
// per scheme, as transcribed in the Fig 21 and Fig 25 rows of
// EXPERIMENTS.md. The simulated averages are compared at bench scale
// (0.10), not at the paper's full scale, and there is no hardware
// reference: the paper's numbers come from its own simulator, so the
// error measures reproduction fidelity, not accuracy.
var paperAvg = map[string]map[string]float64{
	"fig21": {
		"Private (OTP 4x)":                 1.195,
		"Private (OTP 16x)":                1.140,
		"Cached (OTP 4x)":                  1.163,
		"Dynamic (OTP 4x)":                 1.147,
		"Ours [Dynamic+Batching] (OTP 4x)": 1.079,
	},
	"fig25": {
		"Private (OTP 4x)":                 1.321,
		"Cached (OTP 4x)":                  1.278,
		"Ours [Dynamic+Batching] (OTP 4x)": 1.146,
	},
}

// paperAbsErr is the mean absolute difference between each scheme's
// simulated average and the paper's.
func paperAbsErr(exp string, t *experiments.Table) (float64, error) {
	refs := paperAvg[exp]
	if len(refs) == 0 {
		return 0, fmt.Errorf("no paper reference for %s", exp)
	}
	var sum float64
	for col, want := range refs {
		got, ok := t.Value("avg", col)
		if !ok {
			return 0, fmt.Errorf("%s has no column %q", exp, col)
		}
		sum += math.Abs(got - want)
	}
	return sum / float64(len(refs)), nil
}

func csvDigest(csv string) string {
	sum := sha256.Sum256([]byte(csv))
	return hex.EncodeToString(sum[:])
}

// sweepTrace accumulates the traced passes' per-layer evidence.
type sweepTrace struct {
	rec   *Recorder
	prof  cpuProfile
	rt    runtimeSample
	ops   uint64
	first *cellLog // the first traced pass's results
	stats sweep.Stats
	idle  float64
}

func runSweep(ctx context.Context, o options, w sweepWorkload) *report {
	rep := newReport(w.name)
	scale := w.scale
	if o.scale > 0 {
		scale = o.scale
	}
	runner, err := experiments.Lookup(w.experiment)
	if err != nil {
		rep.check(false, "%v", err)
		return rep
	}
	params := func(eng *sweep.Engine, scale float64, simWorkers int) experiments.Params {
		return experiments.Params{
			GPUs: w.gpus, Scale: scale, Seed: o.seed, Workloads: w.workloads,
			Parallelism: w.par, SimWorkers: simWorkers, Engine: eng,
		}
	}

	// Set-up, timed from process start: warm the allocator, page in the
	// simulator and let lazy initialisation finish with the same figure at
	// a tenth of the scale.
	_, err = runner(ctx, params(sweep.New(w.par), scale/10, 0))
	rep.check(err == nil, "warm-up %s: %v", w.experiment, err)
	if err != nil {
		return rep
	}
	rep.set("setup_s", time.Since(o.procStart).Seconds(), 1)
	if o.setupOnly {
		return rep
	}

	var tr *sweepTrace
	if o.trace {
		tr = &sweepTrace{rec: newRecorder()}
	}
	var cold, coldTraced, warm, cells []float64
	var first *experiments.Table
	var firstCSV string
	deadline := time.Now().Add(o.duration())
	for pass := 0; pass < o.minPasses() || time.Now().Before(deadline); pass++ {
		if ctx.Err() != nil {
			rep.check(false, "pass %d: %v", pass, ctx.Err())
			break
		}
		traced := tr != nil && pass%2 == 1
		// Start every pass, and its warm reruns, from a collected heap, as
		// go test -bench does, so a collection the previous step left
		// running does not land in the next one's timing.
		runtime.GC()
		eng := sweep.New(w.par)
		var passCells []float64
		eng.Observe(func(ev sweep.Event) {
			rep.check(ev.Err == nil, "cell %s: %v", ev.Label, ev.Err)
			if !ev.Cached {
				passCells = append(passCells, ev.Duration.Seconds())
			}
		})
		name := fmt.Sprintf("pass%d", pass)
		var log cellLog
		var span int
		var rt0 runtimeSample
		if traced {
			span = tr.rec.Start("experiments."+w.experiment, 0, name)
			eng.SetSimulator(tracedSimulator(ctx, tr.rec, span, name, &log))
			if err := tr.prof.start(); err != nil {
				rep.check(false, "cpu profile: %v", err)
			}
			rt0 = readRuntime()
		}
		t0 := time.Now()
		table, err := runner(ctx, params(eng, scale, 0))
		d := time.Since(t0)
		if traced {
			tr.rt.add(rt0, readRuntime())
			if err := tr.prof.stop(); err != nil {
				rep.check(false, "cpu profile: %v", err)
			}
			tr.rec.End(span)
		}
		rep.check(err == nil, "%s pass %d: %v", w.experiment, pass, err)
		if err != nil {
			break
		}
		csv := table.CSV()
		if first == nil {
			first, firstCSV = table, csv
			rep.logf("table %s seed=%d scale=%g sha256=%s", w.experiment, o.seed, scale, csvDigest(csv))
		} else {
			rep.check(csv == firstCSV, "%s pass %d table differs from pass 0 (sha256 %s)", w.experiment, pass, csvDigest(csv))
		}
		if traced {
			coldTraced = append(coldTraced, d.Seconds())
			tr.ops += log.ops()
			if tr.first == nil {
				tr.first = &log
				var busy float64
				for _, c := range passCells {
					busy += c
				}
				tr.idle = 1 - busy/(float64(w.par)*d.Seconds())
			}
		} else {
			cold = append(cold, d.Seconds())
			cells = append(cells, passCells...)
		}
		runtime.GC()
		for r := 0; r < warmReps; r++ {
			t0 := time.Now()
			wt, err := runner(ctx, params(eng, scale, 0))
			d := time.Since(t0)
			same := err == nil && wt.CSV() == firstCSV
			rep.check(same, "%s warm rerun %d of pass %d: err=%v, table equal=%v", w.experiment, r, pass, err, same)
			if !traced {
				warm = append(warm, d.Seconds())
			}
		}
		if traced && tr.stats.Cells == 0 {
			tr.stats = eng.Stats()
		}
	}
	rep.setNote("peak_rss_mb", peakRSSMiB(), 1, "process peak resident set at the end of the timed phase")
	if first == nil {
		return rep
	}

	// Reference pass: a fresh engine whose simulator only counts
	// operations; with refWorkers it also runs another kernel. Its table
	// must equal the timed passes' byte for byte.
	var ref cellLog
	eng := sweep.New(w.par)
	eng.SetSimulator(countingSimulator(ctx, &ref))
	refTable, err := runner(ctx, params(eng, scale, w.refWorkers))
	same := err == nil && refTable.CSV() == firstCSV
	rep.check(same, "reference pass (sim workers %d): err=%v, table equal=%v", w.refWorkers, err, same)
	if want, ok := w.golden[o.seed]; ok && scale == w.scale {
		got := csvDigest(firstCSV)
		rep.check(got == want, "%s seed %d digest %s, golden %s", w.experiment, o.seed, got, want)
		if got == want {
			rep.logf("golden digest matches (%s scale %g seed %d)", w.experiment, scale, o.seed)
		}
	}
	opsPerPass := ref.ops()
	rep.logf("simulated ops per pass: %d (%d cells)", opsPerPass, len(ref.results))

	rep.timing("tables_cold_p50_s", cold)
	rep.timing("tables_warm_p50_s", warm)
	var coldSum float64
	for _, c := range cold {
		coldSum += c
	}
	if coldSum > 0 {
		rep.set("sim_ops_per_s", float64(opsPerPass)*float64(len(cold))/coldSum, len(cold))
	}
	rep.timing("cell_p50_s", cells)
	if p90, err := percentile(cells, 0.9); err == nil {
		rep.set("cell_p90_s", p90, len(cells))
	} else {
		rep.logf("cell_p90_s not reported: %v", err)
	}
	if e, err := paperAbsErr(w.experiment, first); err == nil {
		rep.setNote("paper_abs_err", e, len(paperAvg[w.experiment]), fmt.Sprintf("simulated, scale %g vs paper's printed averages", scale))
	} else {
		rep.check(false, "paper_abs_err: %v", err)
	}
	rep.set("fail_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)

	if tr != nil {
		tr.report(ctx, rep, o, w, cold, coldTraced)
	}
	return rep
}

// report turns the traced passes' evidence into per-layer metrics.
func (tr *sweepTrace) report(ctx context.Context, rep *report, o options, w sweepWorkload, cold, coldTraced []float64) {
	spans := tr.rec.Spans()
	reportShares(ctx, rep, &tr.prof)

	newS, runS, trS := durations(spans, "machine.New"), durations(spans, "machine.RunContext"), durations(spans, "workload.Traces")
	rep.set("machine.new_s", median(newS), len(newS))
	rep.set("machine.run_s", median(runS), len(runS))
	rep.set("workload.traces_s", median(trS), len(trS))
	if tr.ops > 0 {
		var run float64
		for _, d := range runS {
			run += d
		}
		rep.set("machine.run_ns_per_op", run*1e9/float64(tr.ops), len(runS))
		rep.set("runtime.alloc_bytes_per_op", float64(tr.rt.allocBytes)/float64(tr.ops), len(runS))
		rep.set("runtime.mallocs_per_op", float64(tr.rt.allocObjects)/float64(tr.ops), len(runS))
	}
	if tr.rt.totalCPU > 0 {
		rep.setNote("runtime.gc_cpu_share", tr.rt.gcCPU/tr.rt.totalCPU, 1, "runtime/metrics estimate")
	}

	// Counts from machine.Result: one traced pass, so they repeat exactly.
	var cycles, migrations, ops, base, meta, memprot uint64
	var data, acks, macs, verified, flushes uint64
	var merged otp.Stats
	for _, r := range tr.first.results {
		cycles += uint64(r.Cycles)
		migrations += r.Migrations
		ops += r.Ops
		base += r.Traffic.BaseBytes
		meta += r.Traffic.MetaBytes
		memprot += r.Traffic.MemProtBytes
		data += r.Sec.DataSent
		acks += r.Sec.ACKsSent
		macs += r.Sec.BatchMACsSent
		verified += r.Sec.BatchesVerified
		flushes += r.Sec.TimeoutFlushes
		merged.Merge(&r.OTP)
	}
	n := len(tr.first.results)
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"machine.sim_cycles", cycles}, {"machine.migrations", migrations}, {"workload.ops", ops},
		{"interconnect.base_bytes", base}, {"interconnect.meta_bytes", meta}, {"interconnect.memprot_bytes", memprot},
		{"secure.data_sent", data}, {"secure.acks_sent", acks}, {"secure.batch_macs_sent", macs},
		{"secure.batches_verified", verified}, {"secure.timeout_flushes", flushes},
	} {
		rep.setNote(c.name, float64(c.v), n, "per pass, from machine.Result")
	}
	rep.set("otp.send_hit_frac", merged.Fraction(otp.Send, otp.Hit), n)
	rep.set("otp.send_miss_frac", merged.Fraction(otp.Send, otp.Miss), n)
	rep.set("otp.recv_hit_frac", merged.Fraction(otp.Recv, otp.Hit), n)
	rep.set("otp.recv_miss_frac", merged.Fraction(otp.Recv, otp.Miss), n)

	st := tr.stats
	rep.setNote("sweep.cells", float64(st.Cells), 1, fmt.Sprintf("per pass: 1 cold + %d warm runs", warmReps))
	rep.set("sweep.simulated", float64(st.Simulated), 1)
	rep.set("sweep.cache_hits", float64(st.CacheHits), 1)
	rep.set("sweep.store_hits", float64(st.StoreHits), 1)
	rep.set("sweep.failed", float64(st.Failed), 1)
	if st.Cells > 0 {
		rep.set("sweep.dedup_frac", float64(st.CacheHits+st.StoreHits)/float64(st.Cells), 1)
	}
	rep.set("sweep.slot_idle_frac", tr.idle, 1)
	exp := durations(spans, "experiments."+w.experiment)
	rep.set("experiments."+w.experiment+".run_s", median(exp), len(exp))

	replayStore(rep, tr.first)
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

// replayStore times store.Put and store.Get by writing the logged results
// into a scratch store and reading them back.
func replayStore(rep *report, log *cellLog) {
	dir, err := os.MkdirTemp("", "perfbench-replay-")
	if err != nil {
		rep.check(false, "replay store: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{SimDigest: store.BinaryDigest()})
	if err != nil {
		rep.check(false, "replay store: %v", err)
		return
	}
	var puts, gets []float64
	for i, res := range log.results {
		key := log.keys[i]
		t0 := time.Now()
		err := st.Put(key, "replay", res)
		puts = append(puts, time.Since(t0).Seconds())
		rep.check(err == nil, "replay put %s: %v", key, err)
	}
	for i, key := range log.keys {
		t0 := time.Now()
		got, ok := st.Get(key)
		gets = append(gets, time.Since(t0).Seconds())
		rep.check(ok && got.Ops == log.results[i].Ops && got.Cycles == log.results[i].Cycles, "replay get %s: found=%v", key, ok)
	}
	rep.setNote("store.put_p50_s", median(puts), len(puts), "replay into a scratch store")
	rep.setNote("store.get_p50_s", median(gets), len(gets), "replay from a scratch store")
}

// logSelfTimes prints each span name's count, total and self time.
func logSelfTimes(rep *report, spans []Span) {
	self := selfTimes(spans)
	total := make(map[string]time.Duration)
	count := make(map[string]int)
	for _, s := range spans {
		total[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	for _, name := range sortedKeys(count) {
		rep.logf("span %-26s n=%-6d total=%10.4fs self=%10.4fs", name, count[name], total[name].Seconds(), self[name].Seconds())
	}
}
