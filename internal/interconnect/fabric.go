package interconnect

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"secmgpu/internal/sim"
)

// Deliverer receives messages that arrive at a node.
type Deliverer interface {
	// Deliver is called when msg fully arrives at its destination.
	Deliver(now sim.Cycle, msg *Message)
}

// DelivererFunc adapts a function to the Deliverer interface.
type DelivererFunc func(now sim.Cycle, msg *Message)

// Deliver calls f.
func (f DelivererFunc) Deliver(now sim.Cycle, msg *Message) { f(now, msg) }

// stage is a FIFO, work-conserving serialization point (a NIC or a wire
// direction): each message occupies it for overhead + size/bandwidth
// cycles. The fixed overhead models packetization/flit framing, which makes
// message count — not just bytes — consume fabric capacity; eliminating
// per-block ACK and MsgMAC packets is how metadata batching buys bandwidth
// back.
type stage struct {
	bandwidth float64   // bytes per cycle
	overhead  sim.Cycle // fixed per-message occupancy
	nextFree  sim.Cycle
	busy      sim.Cycle // total occupied cycles, for utilization reporting
}

// pass serializes size bytes starting no earlier than at, returning the
// cycle the last byte leaves the stage.
func (s *stage) pass(at sim.Cycle, size int) sim.Cycle {
	start := at
	if s.nextFree > start {
		start = s.nextFree
	}
	tx := s.overhead + sim.Cycle(math.Ceil(float64(size)/s.bandwidth))
	if tx == 0 {
		tx = 1
	}
	s.nextFree = start + tx
	s.busy += tx
	return s.nextFree
}

// Fabric is the full interconnect: a shared PCIe bus stage at the CPU, a
// NIC stage per GPU, and a duplex wire per node pair. Message timing is
// resolved eagerly at send time, which is exact for FIFO work-conserving
// stages because sends are processed in simulation-time order.
type Fabric struct {
	engine *sim.Engine
	nodes  int

	// nicIn/nicOut are per-node aggregate injection/ejection stages.
	nicOut []stage
	nicIn  []stage
	// wires[src][dst] is the directed wire stage from src to dst.
	wires [][]stage
	// latency[src][dst] is the propagation latency of the src->dst path.
	latency [][]sim.Cycle

	deliverers []Deliverer

	// Switch topology state (nil slices in p2p mode).
	topology  Topology
	uplinks   []stage
	downlinks []stage
	crossbar  stage
	switchHop sim.Cycle

	// Fault injection state (nil when the profile is inactive).
	faults   FaultConfig
	faultRNG [][]*rand.Rand

	// Outage state (nil until a profile is configured or a scripted
	// outage is forced).
	outages *outageModel

	// deliverH is the single Handler used for every arrival event, with
	// the message itself as the (pointer, hence unboxed) event payload —
	// scheduling a delivery allocates nothing.
	deliverH sim.Handler

	stats Stats
}

// Topology selects how GPUs reach each other.
type Topology int

const (
	// TopologyP2P wires every GPU pair directly (DGX-1 style).
	TopologyP2P Topology = iota
	// TopologySwitch routes all GPU-GPU traffic through a central switch
	// (DGX-2 / NVSwitch style): each GPU has one uplink and one downlink
	// at NVLink bandwidth, and the switch itself has an aggregate
	// crossbar bandwidth.
	TopologySwitch
)

// String names the topology.
func (t Topology) String() string {
	if t == TopologySwitch {
		return "switch"
	}
	return "p2p"
}

// FabricConfig sizes the fabric.
type FabricConfig struct {
	// NumGPUs is the GPU count; node 0 is the CPU.
	NumGPUs int
	// PCIeBandwidth is the shared CPU bus bandwidth in bytes/cycle.
	PCIeBandwidth float64
	// NVLinkBandwidth is the per-pair GPU-GPU wire bandwidth.
	NVLinkBandwidth float64
	// GPUNICBandwidth is each GPU's aggregate injection/ejection
	// bandwidth across all of its links.
	GPUNICBandwidth float64
	// PCIeLatency and NVLinkLatency are one-way propagation latencies.
	PCIeLatency   sim.Cycle
	NVLinkLatency sim.Cycle
	// MsgOverhead is the fixed per-message NIC occupancy in cycles
	// (packetization/flit framing).
	MsgOverhead sim.Cycle
	// Topology selects p2p (default) or switch routing for GPU-GPU
	// traffic.
	Topology Topology
	// SwitchBandwidth is the crossbar's aggregate bandwidth in
	// bytes/cycle (switch topology only; default 8x NVLink).
	SwitchBandwidth float64
	// SwitchLatency is the extra hop latency through the switch.
	SwitchLatency sim.Cycle
	// Faults injects loss/corruption/duplication into secure-channel
	// traffic (messages carrying a Sec envelope). Zero rates disable it.
	Faults FaultConfig
	// Outages injects sustained link/node down windows that blackhole
	// secure-channel traffic. The zero value is an always-up fabric.
	Outages OutageConfig
}

// FaultConfig models a lossy fabric: each secure-channel message (one with
// a Sec envelope) is independently dropped, corrupted, or duplicated. The
// unprotected control plane is exempt — no recovery protocol exists for it,
// and the paper's baseline assumes reliable links. Faults are drawn from
// per-link generators seeded by (Seed, src, dst) for deterministic,
// link-independent sequences.
type FaultConfig struct {
	DropRate      float64
	CorruptRate   float64
	DuplicateRate float64
	Seed          int64
}

// Active reports whether any fault is injected.
func (f FaultConfig) Active() bool {
	return f.DropRate > 0 || f.CorruptRate > 0 || f.DuplicateRate > 0
}

// duplicateDelay is how many cycles after the original a duplicated copy
// arrives, as if re-injected on the wire.
const duplicateDelay = 7

// NewFabric builds the fabric for cfg. Deliverers must be registered for
// every node before messages are sent to it.
func NewFabric(engine *sim.Engine, cfg FabricConfig) *Fabric {
	if cfg.NumGPUs < 1 {
		panic("interconnect: need at least one GPU")
	}
	if cfg.PCIeBandwidth <= 0 || cfg.NVLinkBandwidth <= 0 || cfg.GPUNICBandwidth <= 0 {
		panic("interconnect: bandwidths must be positive")
	}
	n := cfg.NumGPUs + 1
	f := &Fabric{
		engine:     engine,
		nodes:      n,
		nicOut:     make([]stage, n),
		nicIn:      make([]stage, n),
		deliverers: make([]Deliverer, n),
		topology:   cfg.Topology,
		faults:     cfg.Faults,
		stats:      newStats(n),
	}
	f.deliverH = sim.HandlerFunc(f.deliverEvent)
	if cfg.Faults.Active() {
		f.faultRNG = make([][]*rand.Rand, n)
		for s := 0; s < n; s++ {
			f.faultRNG[s] = make([]*rand.Rand, n)
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				// A distinct deterministic stream per directed link: a
				// fault on one link never perturbs another's sequence.
				f.faultRNG[s][d] = rand.New(rand.NewSource(cfg.Faults.Seed ^ int64(s*n+d+1)*0x5851f42d4c957f2d))
			}
		}
	}
	if cfg.Outages.Active() {
		f.outages = newOutageModel(n, cfg.Outages, &f.stats)
	}
	if cfg.Topology == TopologySwitch {
		if cfg.SwitchBandwidth <= 0 {
			cfg.SwitchBandwidth = 8 * cfg.NVLinkBandwidth
		}
		if cfg.SwitchLatency == 0 {
			cfg.SwitchLatency = 30
		}
		f.switchHop = cfg.SwitchLatency
		f.crossbar = stage{bandwidth: cfg.SwitchBandwidth}
		f.uplinks = make([]stage, n)
		f.downlinks = make([]stage, n)
		for i := range f.uplinks {
			f.uplinks[i] = stage{bandwidth: cfg.NVLinkBandwidth}
			f.downlinks[i] = stage{bandwidth: cfg.NVLinkBandwidth}
		}
	}
	for i := 0; i < n; i++ {
		bw := cfg.GPUNICBandwidth
		if NodeID(i).IsCPU() {
			bw = cfg.PCIeBandwidth
		}
		f.nicOut[i] = stage{bandwidth: bw, overhead: cfg.MsgOverhead}
		f.nicIn[i] = stage{bandwidth: bw, overhead: cfg.MsgOverhead}
	}
	f.wires = make([][]stage, n)
	f.latency = make([][]sim.Cycle, n)
	for s := 0; s < n; s++ {
		f.wires[s] = make([]stage, n)
		f.latency[s] = make([]sim.Cycle, n)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if NodeID(s).IsCPU() || NodeID(d).IsCPU() {
				f.wires[s][d] = stage{bandwidth: cfg.PCIeBandwidth}
				f.latency[s][d] = cfg.PCIeLatency
			} else {
				f.wires[s][d] = stage{bandwidth: cfg.NVLinkBandwidth}
				f.latency[s][d] = cfg.NVLinkLatency
			}
		}
	}
	return f
}

// Register installs the deliverer for a node.
func (f *Fabric) Register(node NodeID, d Deliverer) {
	f.deliverers[node] = d
}

// NumNodes returns the processor count including the CPU.
func (f *Fabric) NumNodes() int { return f.nodes }

// Send injects msg at the current cycle. The arrival event is scheduled
// after sender-NIC serialization, wire serialization, propagation latency,
// and receiver-NIC serialization.
func (f *Fabric) Send(msg *Message) {
	if msg.Src == msg.Dst {
		panic(fmt.Sprintf("interconnect: self-send on node %v", msg.Src))
	}
	if int(msg.Src) >= f.nodes || int(msg.Dst) >= f.nodes || msg.Src < 0 || msg.Dst < 0 {
		panic(fmt.Sprintf("interconnect: send %v->%v outside %d-node fabric", msg.Src, msg.Dst, f.nodes))
	}
	if f.deliverers[msg.Dst] == nil {
		panic(fmt.Sprintf("interconnect: no deliverer registered for %v", msg.Dst))
	}
	now := f.engine.Now()
	f.stats.record(msg)
	size := msg.Size()
	t := f.nicOut[msg.Src].pass(now, size)
	if f.topology == TopologySwitch && !msg.Src.IsCPU() && !msg.Dst.IsCPU() {
		// GPU-GPU traffic rides the per-GPU uplink, crosses the shared
		// crossbar, and exits on the destination's downlink.
		t = f.uplinks[msg.Src].pass(t, size)
		t = f.crossbar.pass(t, size)
		t += f.switchHop + f.latency[msg.Src][msg.Dst]
		t = f.downlinks[msg.Dst].pass(t, size)
	} else {
		t = f.wires[msg.Src][msg.Dst].pass(t, size)
		t += f.latency[msg.Src][msg.Dst]
	}
	t = f.nicIn[msg.Dst].pass(t, size)

	// Outages blackhole secure-channel traffic wholesale: a dark link or a
	// resetting endpoint swallows every protected message crossing it for
	// the window's duration. Like faults, the decision comes after timing
	// resolution (the bytes occupied the stages before vanishing), and the
	// unprotected control plane is exempt so the simulation can drain.
	if f.outages != nil && msg.Sec != nil && f.outages.blocked(now, msg.Src, msg.Dst) {
		f.stats.OutageDropped++
		msg.Release()
		return
	}

	// Fault injection applies only to secure-channel traffic (messages
	// carrying a Sec envelope); the control plane is lossless. The decision
	// comes after timing resolution: a dropped message still occupied every
	// stage up to the fault.
	if f.faultRNG != nil && msg.Sec != nil {
		r := f.faultRNG[msg.Src][msg.Dst].Float64()
		switch {
		case r < f.faults.DropRate:
			f.stats.FaultDropped++
			msg.Release()
			return
		case r < f.faults.DropRate+f.faults.CorruptRate:
			f.stats.FaultCorrupted++
			msg.Corrupted = true
			if len(msg.Sec.Ciphertext) > 0 {
				msg.Sec.Ciphertext = append([]byte(nil), msg.Sec.Ciphertext...)
				msg.Sec.Ciphertext[0] ^= 0x40
			}
		case r < f.faults.DropRate+f.faults.CorruptRate+f.faults.DuplicateRate:
			f.stats.FaultDuplicated++
			// The duplicate outlives the original's delivery, so it must
			// own its envelope and ciphertext. It is scheduled before the
			// original, which fixes the pair's same-cycle tie order.
			f.engine.Schedule(t+duplicateDelay, f.deliverH, msg.Clone())
		}
	}

	f.engine.Schedule(t, f.deliverH, msg)
}

// deliverEvent hands an arrived message to its destination and, unless the
// receiver retained it, returns a pooled message to the pool. This is the
// release point of the pooling ownership protocol (see AcquireMessage).
func (f *Fabric) deliverEvent(ev sim.Event) {
	msg := ev.Payload.(*Message)
	f.deliverers[msg.Dst].Deliver(f.engine.Now(), msg)
	if !msg.retained {
		msg.Release()
	}
}

// Stats returns the accumulated traffic statistics.
func (f *Fabric) Stats() *Stats { return &f.stats }

// Stats aggregates fabric traffic. BaseBytes is traffic the unsecure
// baseline would also carry; MetaBytes is everything added by protection.
type Stats struct {
	Messages      uint64
	BaseBytes     uint64
	MetaBytes     uint64
	MemProtBytes  uint64
	ByCategory    [numCategories]uint64
	perNodeSent   []uint64
	perNodeRecved []uint64

	// Fault-injection counters (FaultConfig): secure-channel messages
	// dropped, corrupted, or duplicated in flight.
	FaultDropped    uint64
	FaultCorrupted  uint64
	FaultDuplicated uint64

	// Outage counters (OutageConfig): secure-channel messages blackholed
	// by a dark link or resetting node, and the number of link/node outage
	// windows entered (scripted windows count once when forced).
	OutageDropped uint64
	LinkOutages   uint64
	NodeOutages   uint64
}

func newStats(nodes int) Stats {
	return Stats{
		perNodeSent:   make([]uint64, nodes),
		perNodeRecved: make([]uint64, nodes),
	}
}

func (s *Stats) record(msg *Message) {
	s.Messages++
	s.BaseBytes += uint64(msg.BaseBytes)
	s.MetaBytes += uint64(msg.MetaBytes)
	s.MemProtBytes += uint64(msg.MemProtBytes)
	s.ByCategory[msg.Category] += uint64(msg.BaseBytes + msg.MetaBytes)
	s.ByCategory[CatMemProt] += uint64(msg.MemProtBytes)
	s.perNodeSent[msg.Src] += uint64(msg.Size())
	s.perNodeRecved[msg.Dst] += uint64(msg.Size())
}

// TotalBytes is all traffic carried by the fabric.
func (s *Stats) TotalBytes() uint64 { return s.BaseBytes + s.MetaBytes + s.MemProtBytes }

// NodeSentBytes returns bytes injected by the node.
func (s *Stats) NodeSentBytes(n NodeID) uint64 { return s.perNodeSent[n] }

// NodeReceivedBytes returns bytes ejected at the node.
func (s *Stats) NodeReceivedBytes(n NodeID) uint64 { return s.perNodeRecved[n] }

// statsJSON is the wire form of Stats: the durable result store
// round-trips results through JSON, and the per-node slices are
// unexported.
type statsJSON struct {
	Messages        uint64   `json:"messages"`
	BaseBytes       uint64   `json:"base"`
	MetaBytes       uint64   `json:"meta"`
	MemProtBytes    uint64   `json:"memprot"`
	ByCategory      []uint64 `json:"bycat"`
	PerNodeSent     []uint64 `json:"sent,omitempty"`
	PerNodeRecved   []uint64 `json:"recved,omitempty"`
	FaultDropped    uint64   `json:"fdrop,omitempty"`
	FaultCorrupted  uint64   `json:"fcorrupt,omitempty"`
	FaultDuplicated uint64   `json:"fdup,omitempty"`
	OutageDropped   uint64   `json:"odrop,omitempty"`
	LinkOutages     uint64   `json:"olink,omitempty"`
	NodeOutages     uint64   `json:"onode,omitempty"`
}

// MarshalJSON encodes the complete traffic accounting, per-node slices
// included.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsJSON{
		Messages:        s.Messages,
		BaseBytes:       s.BaseBytes,
		MetaBytes:       s.MetaBytes,
		MemProtBytes:    s.MemProtBytes,
		ByCategory:      s.ByCategory[:],
		PerNodeSent:     s.perNodeSent,
		PerNodeRecved:   s.perNodeRecved,
		FaultDropped:    s.FaultDropped,
		FaultCorrupted:  s.FaultCorrupted,
		FaultDuplicated: s.FaultDuplicated,
		OutageDropped:   s.OutageDropped,
		LinkOutages:     s.LinkOutages,
		NodeOutages:     s.NodeOutages,
	})
}

// UnmarshalJSON decodes Stats, rejecting a category vector whose length
// disagrees with this build (an older binary's entry) instead of
// silently dropping buckets.
func (s *Stats) UnmarshalJSON(data []byte) error {
	var d statsJSON
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	if len(d.ByCategory) != int(numCategories) {
		return fmt.Errorf("interconnect: %d traffic categories on disk, want %d", len(d.ByCategory), int(numCategories))
	}
	*s = Stats{
		Messages:        d.Messages,
		BaseBytes:       d.BaseBytes,
		MetaBytes:       d.MetaBytes,
		MemProtBytes:    d.MemProtBytes,
		perNodeSent:     d.PerNodeSent,
		perNodeRecved:   d.PerNodeRecved,
		FaultDropped:    d.FaultDropped,
		FaultCorrupted:  d.FaultCorrupted,
		FaultDuplicated: d.FaultDuplicated,
		OutageDropped:   d.OutageDropped,
		LinkOutages:     d.LinkOutages,
		NodeOutages:     d.NodeOutages,
	}
	copy(s.ByCategory[:], d.ByCategory)
	return nil
}
