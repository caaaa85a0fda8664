// Package gpu models the compute-side front-end of a GPU (Section II-A):
// many compute units (CUs), each running wavefronts that issue remote
// memory operations independently. Compared with the flat per-GPU
// outstanding-request window the machine uses by default, the CU-sharded
// front-end bounds each CU's memory-level parallelism separately and
// interleaves issue across CUs round-robin — the interleaving that
// produces stray traffic inside otherwise destination-coherent bursts.
//
// The front-end is enabled with Config.CUsPerGPU > 0; the default flat
// window keeps the calibrated reproduction unchanged, and ablation A8
// compares the two.
package gpu

import (
	"fmt"

	"secmgpu/internal/sim"
	"secmgpu/internal/workload"
)

// FrontEnd shards one GPU's trace across CUs.
type FrontEnd struct {
	cus []cu
	// rr is the round-robin issue pointer.
	rr int
	// remaining counts ops not yet completed.
	remaining int
}

type cu struct {
	ops        []workload.Op
	next       int
	inFlight   int
	window     int
	eligibleAt sim.Cycle
}

// New partitions ops round-robin across numCUs compute units, each with
// the given per-CU outstanding window.
func New(ops []workload.Op, numCUs, perCUWindow int) *FrontEnd {
	if numCUs < 1 || perCUWindow < 1 {
		panic("gpu: front-end needs at least one CU and a positive window")
	}
	if numCUs > len(ops) && len(ops) > 0 {
		numCUs = len(ops)
	}
	f := &FrontEnd{cus: make([]cu, numCUs), remaining: len(ops)}
	for i := range f.cus {
		f.cus[i].window = perCUWindow
	}
	for i, op := range ops {
		c := &f.cus[i%numCUs]
		c.ops = append(c.ops, op)
	}
	for i := range f.cus {
		if len(f.cus[i].ops) > 0 {
			f.cus[i].eligibleAt = sim.Cycle(f.cus[i].ops[0].Gap)
		}
	}
	return f
}

// Done reports whether every op has completed.
func (f *FrontEnd) Done() bool { return f.remaining == 0 }

// Remaining returns the ops not yet completed.
func (f *FrontEnd) Remaining() int { return f.remaining }

// NextReady returns the next issueable op, picking CUs round-robin.
// ok=false means nothing can issue now; wakeAt then carries the earliest
// cycle at which some CU becomes eligible (sim.MaxCycle when all are only
// waiting for completions).
func (f *FrontEnd) NextReady(now sim.Cycle) (op workload.Op, cuIdx int, ok bool, wakeAt sim.Cycle) {
	wakeAt = sim.MaxCycle
	n := len(f.cus)
	for i := 0; i < n; i++ {
		idx := (f.rr + i) % n
		c := &f.cus[idx]
		if c.next >= len(c.ops) || c.inFlight >= c.window {
			continue
		}
		if c.eligibleAt > now {
			if c.eligibleAt < wakeAt {
				wakeAt = c.eligibleAt
			}
			continue
		}
		f.rr = (idx + 1) % n
		return c.ops[c.next], idx, true, 0
	}
	return workload.Op{}, 0, false, wakeAt
}

// OnIssue commits the op returned by NextReady: the CU consumes it,
// advances its eligibility by the next op's gap, and occupies a wavefront
// slot.
func (f *FrontEnd) OnIssue(cuIdx int, now sim.Cycle) {
	c := &f.cus[cuIdx]
	if c.next >= len(c.ops) {
		panic(fmt.Sprintf("gpu: CU %d over-issued", cuIdx))
	}
	c.next++
	c.inFlight++
	if c.next < len(c.ops) {
		c.eligibleAt = now + sim.Cycle(c.ops[c.next].Gap)
	}
}

// OnComplete retires one of the CU's in-flight ops.
func (f *FrontEnd) OnComplete(cuIdx int) {
	c := &f.cus[cuIdx]
	if c.inFlight == 0 {
		panic(fmt.Sprintf("gpu: CU %d completed with nothing in flight", cuIdx))
	}
	c.inFlight--
	f.remaining--
	if f.remaining < 0 {
		panic("gpu: completed more ops than issued")
	}
}

// InFlight sums outstanding ops across CUs, for tests and reporting.
func (f *FrontEnd) InFlight() int {
	t := 0
	for i := range f.cus {
		t += f.cus[i].inFlight
	}
	return t
}

// NumCUs returns the compute-unit count.
func (f *FrontEnd) NumCUs() int { return len(f.cus) }
