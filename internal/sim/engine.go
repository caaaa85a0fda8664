// Package sim provides the discrete-event simulation kernel that drives the
// secure multi-GPU model. It plays the role MGPUSim's Akita engine plays in
// the paper: components schedule events at future cycles and the engine
// executes them in deterministic time order.
//
// Time is measured in integer cycles of the 1 GHz GPU clock (Table III of the
// paper), so one cycle equals one nanosecond. Determinism is guaranteed by
// breaking time ties with a monotonically increasing sequence number, which
// makes every simulation bit-reproducible for a given configuration and seed.
//
// The event queue is a hand-specialized binary heap over a flat []Event
// rather than container/heap: the standard library interface forces every
// push and pop through `any`, which boxes the Event struct on the heap once
// per scheduled event. The specialized queue moves events by value only, so
// the steady-state hot path (Schedule/Run) performs zero allocations.
package sim

import (
	"fmt"
	"math"
)

// Cycle is a point in simulated time, in GPU clock cycles.
type Cycle uint64

// MaxCycle is the largest representable simulation time. It is used as the
// "never" sentinel by components that need an inactive deadline.
const MaxCycle Cycle = math.MaxUint64

// Handler consumes an event when its scheduled cycle is reached.
type Handler interface {
	// Handle is invoked exactly once, at the event's scheduled cycle.
	Handle(ev Event)
}

// HandlerFunc adapts a plain function to the Handler interface.
type HandlerFunc func(ev Event)

// Handle calls f(ev).
func (f HandlerFunc) Handle(ev Event) { f(ev) }

// Event is a unit of scheduled work.
type Event struct {
	// At is the cycle the event fires.
	At Cycle
	// Handler receives the event.
	Handler Handler
	// Payload carries arbitrary event data; its type is a contract between
	// the scheduling component and the handler. Hot paths store
	// pointer-typed values, which the runtime represents in an interface
	// without allocating.
	Payload any

	seq uint64
	// slot/gen tie the event to a timer slab entry when it was created by
	// ScheduleTimer; slot is noSlot for plain events. A cancelled timer's
	// event stays queued (lazy deletion) and is discarded when popped.
	slot int32
	gen  uint32
}

// noSlot marks an event that is not backed by a cancellable timer.
const noSlot int32 = -1

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Cycle
	queue   []Event
	nextSeq uint64
	stopped bool

	// EventLimit bounds the number of events processed by Run as a runaway
	// guard; zero means no limit.
	EventLimit uint64
	// Check, when non-nil, is polled once every checkInterval processed
	// events inside Run; a non-nil return aborts the run with that error.
	// The poll schedules nothing and mutates nothing, so enabling it does
	// not perturb the deterministic event order (golden digests are
	// unaffected). machine.RunContext uses it for context cancellation.
	Check     func() error
	processed uint64

	// Timer slab: timerGen[slot] is the generation a live timer event must
	// match to fire; Cancel bumps it so the queued event dies in place.
	// timerFree recycles slots, dead counts cancelled events still queued.
	timerGen  []uint32
	timerFree []int32
	dead      int
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Schedule enqueues an event at the given absolute cycle. Scheduling in the
// past panics: it always indicates a component bug, and silently reordering
// time would destroy the causality the whole model depends on.
func (e *Engine) Schedule(at Cycle, h Handler, payload any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d before now %d", at, e.now))
	}
	if h == nil {
		panic("sim: schedule with nil handler")
	}
	e.push(Event{At: at, Handler: h, Payload: payload, seq: e.assignKey(), slot: noSlot})
}

// assignKey hands out the next sequence number: the monotone tie-breaker
// that orders same-cycle events by schedule time.
func (e *Engine) assignKey() uint64 {
	e.nextSeq++
	return e.nextSeq
}

// ScheduleAfter enqueues an event delay cycles from now.
func (e *Engine) ScheduleAfter(delay Cycle, h Handler, payload any) {
	e.Schedule(e.now+delay, h, payload)
}

// Pending reports the number of live events not yet processed. Cancelled
// timer events still occupying the queue are not counted.
func (e *Engine) Pending() int { return len(e.queue) - e.dead }

// Processed reports the number of events handled so far.
func (e *Engine) Processed() uint64 { return e.processed }

// TimerSlab reports the cancellable-timer slab occupancy for diagnostics:
// slots is the slab's total size, held is the slots not on the free list
// (armed timers plus cancelled events awaiting lazy reclamation), and dead
// is the cancelled events still occupying the queue. A wedged component
// shows up here as held timers that never retire.
func (e *Engine) TimerSlab() (slots, held, dead int) {
	return len(e.timerGen), len(e.timerGen) - len(e.timerFree), e.dead
}

// Stop makes Run (or RunUntil) return after the current event completes.
// Components use it to end a simulation when their termination condition is
// met. A stop raised during RunUntil persists until the next RunUntil call
// consumes it, so a stopped simulation does not silently advance to the
// next call's limit.
func (e *Engine) Stop() { e.stopped = true }

// checkInterval is how many processed events elapse between Check polls.
// Large enough that the indirect call cost vanishes, small enough that a
// cancelled context stops a run within milliseconds.
const checkInterval = 16384

// Run processes events in (cycle, sequence) order until the queue drains,
// Stop is called, EventLimit is hit, or Check reports an error. It returns
// the final cycle and an error if the event limit was exceeded or Check
// failed.
func (e *Engine) Run() (Cycle, error) {
	e.stopped = false
	for !e.stopped {
		if _, ok := e.peek(); !ok {
			break
		}
		ev := e.take()
		if ev.At < e.now {
			panic("sim: event heap time regression")
		}
		e.now = ev.At
		e.processed++
		if e.EventLimit > 0 && e.processed > e.EventLimit {
			return e.now, fmt.Errorf("sim: event limit %d exceeded at cycle %d", e.EventLimit, e.now)
		}
		if e.Check != nil && e.processed%checkInterval == 0 {
			if err := e.Check(); err != nil {
				return e.now, err
			}
		}
		ev.Handler.Handle(ev)
	}
	return e.now, nil
}

// RunUntil processes events with cycle <= limit, leaving later events
// queued and advancing time to limit when the queue runs ahead of it. If a
// handler called Stop during a previous RunUntil, the pending stop is
// consumed and the call returns immediately without advancing time.
func (e *Engine) RunUntil(limit Cycle) (Cycle, error) {
	if e.stopped {
		e.stopped = false
		return e.now, nil
	}
	for {
		next, ok := e.peek()
		if !ok || next > limit {
			break
		}
		ev := e.take()
		e.now = ev.At
		e.processed++
		if e.EventLimit > 0 && e.processed > e.EventLimit {
			return e.now, fmt.Errorf("sim: event limit %d exceeded at cycle %d", e.EventLimit, e.now)
		}
		ev.Handler.Handle(ev)
		if e.stopped {
			// Leave the stop pending: the next RunUntil call consumes it
			// instead of advancing to its own limit.
			return e.now, nil
		}
	}
	if limit > e.now {
		e.now = limit
	}
	return e.now, nil
}

// peek retires cancelled timer events at the head of the queue and reports
// the cycle of the next live event; ok is false when the queue is drained.
func (e *Engine) peek() (Cycle, bool) {
	for len(e.queue) > 0 {
		head := &e.queue[0]
		if head.slot == noSlot || e.timerGen[head.slot] == head.gen {
			return head.At, true
		}
		ev := e.pop()
		e.timerFree = append(e.timerFree, ev.slot)
		e.dead--
	}
	return 0, false
}

// take pops the head event — guaranteed live by a preceding peek — and
// retires its timer slot: a popped timer has fired, so its generation is
// bumped (making Cancel a no-op) and the slot is recycled.
func (e *Engine) take() Event {
	ev := e.pop()
	if ev.slot != noSlot {
		e.timerGen[ev.slot]++
		e.timerFree = append(e.timerFree, ev.slot)
	}
	return ev
}

// eventLess orders events by (cycle, sequence).
func eventLess(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// push inserts ev into the heap by value, sifting up.
func (e *Engine) push(ev Event) {
	e.queue = append(e.queue, ev)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the heap minimum, sifting down. The vacated tail
// slot is zeroed so the queue does not pin Handler/Payload references.
func (e *Engine) pop() Event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = Event{}
	e.queue = q[:n]
	q = e.queue
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(&q[r], &q[l]) {
			m = r
		}
		if !eventLess(&q[m], &q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}
