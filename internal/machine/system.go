// Package machine assembles the full secure multi-GPU system: a CPU node
// and N GPU nodes joined by the interconnect fabric, each fronted by a
// secure-communication endpoint, with unified memory served by per-node
// memory paths and an access-counter page-migration policy. It drives
// workload traces to completion and reports the execution time, traffic,
// and OTP statistics behind every figure in the paper's evaluation.
package machine

import (
	"context"
	"fmt"
	"strings"

	"secmgpu/internal/config"
	"secmgpu/internal/core"
	"secmgpu/internal/crypto"
	"secmgpu/internal/gpu"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/mem"
	"secmgpu/internal/metrics"
	"secmgpu/internal/migration"
	"secmgpu/internal/otp"
	"secmgpu/internal/secure"
	"secmgpu/internal/sim"
	"secmgpu/internal/tlb"
	"secmgpu/internal/workload"
)

// RunOptions selects run-time features orthogonal to the architecture
// configuration.
type RunOptions struct {
	// Functional enables real encryption/MAC verification on every
	// transfer (slower; used by correctness tests and examples).
	Functional bool
	// TraceComms records the per-interval communication series of
	// Figures 13-14.
	TraceComms bool
	// TraceInterval is the series flush period (default 10000 cycles).
	TraceInterval sim.Cycle
	// EventLimit guards against runaway simulations (default 400M).
	EventLimit uint64
}

// Canonical returns the options with unset fields replaced by their
// defaults — the form under which two option values select identical
// simulation behaviour. New applies it on entry; the sweep engine keys its
// result cache on it.
func (o RunOptions) Canonical() RunOptions {
	if o.TraceInterval == 0 {
		o.TraceInterval = 10000
	}
	if o.EventLimit == 0 {
		o.EventLimit = 400_000_000
	}
	return o
}

// Result is the outcome of one simulation run.
type Result struct {
	// Cycles is the execution time: the cycle the last op retired.
	Cycles sim.Cycle
	// Ops is the total remote operations completed.
	Ops uint64
	// Traffic is the fabric byte accounting.
	Traffic interconnect.Stats
	// OTP is the merged pad-use statistics across all nodes.
	OTP otp.Stats
	// OTPPerNode holds each node's pad-use statistics (index = node ID).
	OTPPerNode []otp.Stats
	// Sec is the merged endpoint statistics.
	Sec secure.Stats
	// Migrations is the number of page migrations performed.
	Migrations uint64
	// FailedOps counts operations that fail-completed because their data
	// was poisoned after exhausting retransmissions (zero on a healthy
	// fabric).
	FailedOps uint64
	// StaleCompletions counts duplicate or post-poison completions the
	// recovery protocol tolerated instead of panicking.
	StaleCompletions uint64
	// Burst16 and Burst32 are the distributions of cycles needed for 16
	// and 32 data blocks to gather per (src, dst) pair (Figures 15-16).
	Burst16, Burst32 *metrics.Histogram
	// SendRecvSeries (per GPU, when traced) has lanes {send, recv}
	// per interval (Figure 13).
	SendRecvSeries []*metrics.Series
	// DestSeries (per GPU, when traced) has one lane per destination
	// node (Figure 14).
	DestSeries []*metrics.Series
}

// System is one runnable simulated machine. Build with New, run once with
// Run.
type System struct {
	cfg    config.Config
	opt    RunOptions
	engine *sim.Engine
	fabric *interconnect.Fabric
	policy *migration.Policy
	nodes  []*node

	remaining int
	tickers   []*sim.Ticker
	ran       bool

	// burst16/burst32 measure the burst-interval distributions of
	// Figures 15-16 per directed (src, dst) pair.
	burst16, burst32 *burstTracker
}

// New builds a system for cfg and assigns traces[g] to GPU g+1. The CPU is
// a passive home node.
func New(cfg config.Config, traces [][]workload.Op, opt RunOptions) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(traces) != cfg.NumGPUs {
		return nil, fmt.Errorf("machine: %d traces for %d GPUs", len(traces), cfg.NumGPUs)
	}
	opt = opt.Canonical()

	engine := sim.NewEngine()
	engine.EventLimit = opt.EventLimit
	nNodes := cfg.NumProcessors()
	fabric := interconnect.NewFabric(engine, interconnect.FabricConfig{
		NumGPUs:         cfg.NumGPUs,
		PCIeBandwidth:   cfg.PCIeBandwidth,
		NVLinkBandwidth: cfg.NVLinkBandwidth,
		GPUNICBandwidth: cfg.GPUNICBandwidth,
		PCIeLatency:     sim.Cycle(cfg.PCIeLatency),
		NVLinkLatency:   sim.Cycle(cfg.NVLinkLatency),
		MsgOverhead:     sim.Cycle(cfg.MsgOverheadCycles),
		Topology:        topologyOf(cfg),
		Faults: interconnect.FaultConfig{
			DropRate:      cfg.Faults.DropRate,
			CorruptRate:   cfg.Faults.CorruptRate,
			DuplicateRate: cfg.Faults.DuplicateRate,
			Seed:          cfg.Faults.Seed,
		},
		Outages: interconnect.OutageConfig{
			LinkMTBF:   cfg.Outages.LinkMTBF,
			LinkOutage: cfg.Outages.LinkOutage,
			NodeMTBF:   cfg.Outages.NodeMTBF,
			NodeOutage: cfg.Outages.NodeOutage,
			Seed:       cfg.Outages.Seed,
		},
	})

	s := &System{
		cfg:       cfg,
		opt:       opt,
		engine:    engine,
		fabric:    fabric,
		policy:    migration.NewPolicy(cfg.MigrationThreshold),
		remaining: cfg.NumGPUs,
		burst16:   newBurstTracker(16, nNodes),
		burst32:   newBurstTracker(32, nNodes),
	}

	for id := 0; id < nNodes; id++ {
		n := &node{
			sys:     s,
			id:      interconnect.NodeID(id),
			pending: make(map[uint64]pendingOp),
		}
		n.evH = sim.HandlerFunc(n.onEvent)
		if n.id.IsCPU() {
			n.memory = mem.HostDRAM(cfg.BlockSize)
		} else {
			n.memory = mem.HBM(cfg.BlockSize)
			n.ops = traces[id-1]
			n.window = cfg.OutstandingRequests
			n.migrating = make(map[migration.PageID]bool)
			if cfg.ModelTLB {
				n.tlbH = tlb.New(2 * sim.Cycle(cfg.PCIeLatency))
			}
			if cfg.CUsPerGPU > 0 {
				perCU := cfg.OutstandingRequests / cfg.CUsPerGPU
				if perCU < 1 {
					perCU = 1
				}
				n.fe = gpu.New(n.ops, cfg.CUsPerGPU, perCU)
			}
		}
		mgr, dyn := buildOTPManager(cfg)
		n.dyn = dyn
		n.ep = secure.New(engine, fabric, n.id, secure.OptionsFrom(cfg, opt.Functional), mgr, n)
		if dyn != nil {
			d := dyn
			tk := sim.NewTicker(engine, sim.Cycle(cfg.IntervalT), func(now sim.Cycle) {
				d.AdjustInterval(now)
			})
			s.tickers = append(s.tickers, tk)
		}
		s.nodes = append(s.nodes, n)
	}

	if opt.TraceComms {
		for _, n := range s.nodes {
			if n.id.IsCPU() {
				continue
			}
			lanes := make([]string, nNodes)
			for i := range lanes {
				lanes[i] = interconnect.NodeID(i).String()
			}
			n.sendRecv = metrics.NewSeries("send", "recv")
			n.dests = metrics.NewSeries(lanes...)
			gpu := n
			s.tickers = append(s.tickers, sim.NewTicker(engine, opt.TraceInterval, func(sim.Cycle) {
				gpu.sendRecv.Flush()
				gpu.dests.Flush()
			}))
		}
	}
	return s, nil
}

// topologyOf maps the config flag to the fabric topology.
func topologyOf(cfg config.Config) interconnect.Topology {
	if cfg.SwitchTopology {
		return interconnect.TopologySwitch
	}
	return interconnect.TopologyP2P
}

// buildOTPManager constructs the per-node OTP manager for the configured
// scheme, or nil when the system is unsecure.
func buildOTPManager(cfg config.Config) (otp.Manager, *core.Dynamic) {
	if !cfg.Secure {
		return nil, nil
	}
	peers := cfg.PeersPerProcessor()
	budget := cfg.OTPEntriesPerGPU()
	eng := crypto.NewEngine(sim.Cycle(cfg.AESGCMLatency))
	switch cfg.Scheme {
	case config.OTPPrivate:
		return otp.NewPrivate(peers, cfg.OTPMultiplier, eng), nil
	case config.OTPShared:
		return otp.NewShared(peers, budget, eng), nil
	case config.OTPCached:
		return otp.NewCached(peers, budget, eng), nil
	case config.OTPDynamic:
		d := core.NewDynamic(peers, budget, cfg.Alpha, cfg.Beta, eng)
		return d, d
	case config.OTPOracle:
		return otp.NewOracle(peers), nil
	default:
		panic(fmt.Sprintf("machine: unknown scheme %v", cfg.Scheme))
	}
}

// Run simulates to completion and returns the result. A system can only be
// run once. It is equivalent to RunContext with a background context.
func (s *System) Run() (*Result, error) { return s.RunContext(context.Background()) }

// RunContext simulates to completion and returns the result. A system can
// only be run once. Cancelling ctx aborts the simulation within a bounded
// number of events and returns ctx's error; the cancellation poll never
// schedules events, so an uncancelled run is event-for-event identical to
// Run (golden digests are unaffected).
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.ran {
		return nil, fmt.Errorf("machine: system already ran")
	}
	s.ran = true
	if ctx.Done() != nil {
		s.engine.Check = ctx.Err
	}
	for _, tk := range s.tickers {
		tk.Start()
	}
	for _, n := range s.nodes {
		if n.id.IsCPU() || len(n.ops) == 0 {
			if !n.id.IsCPU() {
				n.done = true
				s.remaining--
			}
			continue
		}
		n.eligibleAt = sim.Cycle(n.ops[0].Gap)
		if n.fe != nil {
			n.scheduleWake(0)
		} else {
			n.scheduleWake(n.eligibleAt)
		}
	}
	if s.remaining == 0 {
		return nil, fmt.Errorf("machine: no GPU has work")
	}

	// The watchdog is armed only when the fabric can misbehave: it
	// schedules real events, which would perturb the deterministic event
	// ordering (and the golden digests) of fault-free runs.
	var wd *sim.Watchdog
	if s.cfg.WatchdogInterval > 0 && (s.cfg.Faults.Active() || s.cfg.Outages.Active()) {
		wd = sim.NewWatchdog(s.engine, sim.WatchdogConfig{
			Interval: sim.Cycle(s.cfg.WatchdogInterval),
			Progress: s.progress,
			Diagnose: s.diagnose,
		})
		wd.Start()
	}

	end, err := s.engine.Run()
	if err != nil {
		// A cancelled context surfaces as the context's own error so
		// callers can errors.Is it against context.Canceled.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	if wd != nil && wd.Tripped() {
		// Checked before the unfinished-GPU error: a tripped run is by
		// definition unfinished, and the diagnosis says why.
		return nil, fmt.Errorf("machine: watchdog tripped at cycle %d after %d cycles without progress: %s",
			wd.TrippedAt(), s.cfg.WatchdogInterval, wd.Diagnosis())
	}
	if s.remaining > 0 {
		return nil, fmt.Errorf("machine: simulation drained with %d GPUs unfinished", s.remaining)
	}

	res := &Result{
		Cycles:     end,
		Traffic:    *s.fabric.Stats(),
		Migrations: s.policy.Migrations(),
		Burst16:    s.burst16.hist,
		Burst32:    s.burst32.hist,
		OTPPerNode: make([]otp.Stats, len(s.nodes)),
	}
	for i, n := range s.nodes {
		res.Ops += uint64(n.completed)
		if st := n.ep.OTPStats(); st != nil {
			res.OTPPerNode[i] = *st
			res.OTP.Merge(st)
		}
		res.Sec.Merge(n.ep.Stats())
		res.FailedOps += n.failedOps
		res.StaleCompletions += n.staleCompletions
		if s.opt.TraceComms && !n.id.IsCPU() {
			res.SendRecvSeries = append(res.SendRecvSeries, n.sendRecv)
			res.DestSeries = append(res.DestSeries, n.dests)
		}
	}
	return res, nil
}

// progress is the watchdog's monotonic useful-work counter: operations
// retired plus protected payloads delivered anywhere in the system. A run
// that keeps its event queue busy (retry loops, handshake storms) without
// moving this number is wedged.
func (s *System) progress() uint64 {
	var p uint64
	for _, n := range s.nodes {
		p += uint64(n.completed) + n.ep.Stats().DataReceived + n.ep.Stats().ResyncsCompleted
	}
	return p
}

// diagnose builds the watchdog's trip-time dump: engine-level queue and
// timer-slab occupancy, message-pool balance, and each endpoint's live
// protocol state, as one JSON document.
func (s *System) diagnose() string {
	var sb strings.Builder
	slots, held, dead := s.engine.TimerSlab()
	fmt.Fprintf(&sb, `{"cycle":%d,"pendingEvents":%d,"timerSlab":{"slots":%d,"held":%d,"dead":%d},"poolOutstanding":%d,"unfinishedGPUs":%d,"endpoints":[`,
		s.engine.Now(), s.engine.Pending(), slots, held, dead,
		interconnect.AuditOutstanding(), s.remaining)
	for i, n := range s.nodes {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n.ep.Diag())
	}
	sb.WriteString("]}")
	return sb.String()
}

// Fabric exposes the system's interconnect for tests that script outages
// or interpose on delivery paths.
func (s *System) Fabric() *interconnect.Fabric { return s.fabric }

// Endpoint returns a node's secure endpoint (tests wrap it in interposers
// and inspect per-endpoint state).
func (s *System) Endpoint(id interconnect.NodeID) *secure.Endpoint { return s.nodes[id].ep }

// gpuFinished is called by a GPU node when its trace retires; the last
// finisher stops the engine on the spot.
func (s *System) gpuFinished() {
	s.remaining--
	if s.remaining == 0 {
		for _, tk := range s.tickers {
			tk.Stop()
		}
		s.engine.Stop()
	}
}

// burstTracker measures, per directed pair, the time for n data blocks to
// gather (Figures 15-16). Buckets follow the figures: [0,40), [40,160),
// [160,640), [640,inf).
type burstTracker struct {
	n     int
	hist  *metrics.Histogram
	count []int
	start []sim.Cycle
}

func newBurstTracker(n, nodes int) *burstTracker {
	pairs := nodes * nodes
	return &burstTracker{
		n:     n,
		hist:  metrics.NewHistogram(40, 160, 640),
		count: make([]int, pairs),
		start: make([]sim.Cycle, pairs),
	}
}

func (t *burstTracker) note(pair int, now sim.Cycle) {
	if t.count[pair] == 0 {
		t.start[pair] = now
	}
	t.count[pair]++
	if t.count[pair] == t.n {
		t.hist.Observe(uint64(now - t.start[pair]))
		t.count[pair] = 0
	}
}
