// Package sim is a deterministic discrete-event simulation engine with an
// int64-nanosecond virtual clock. It exists so that every latency the
// experiments report is a property of the modelled system, not of the Go
// runtime: the paper's phenomena live at 100 µs–10 ms timescales where GC
// pauses and scheduler jitter on a real host would drown the signal.
//
// The engine is single-threaded and allocation-conscious: events are
// pooled, handlers are interfaces satisfied by pointer receivers (no
// closure allocation per packet), and ties are broken by sequence number
// so runs are reproducible bit-for-bit.
package sim

import (
	"fmt"
	"time"

	"planck/internal/units"
)

// Handler is the target of a scheduled event. Packet-carrying events (link
// deliveries, transmit completions) receive the packet; pure timers receive
// nil.
type Handler interface {
	Handle(now units.Time, pkt *Packet)
}

// Event is a scheduled occurrence. Events are owned by the engine's pool;
// user code holds *Event only to Cancel it.
type Event struct {
	at       units.Time
	seq      uint64
	h        Handler
	pkt      *Packet
	canceled bool
	index    int // position in heap, -1 when not queued
}

// Engine runs the event loop.
type Engine struct {
	now   units.Time
	seq   uint64
	heap  []*Event
	pool  []*Event
	ppool []*Packet

	// Stop aborts Run when set (used by RunUntil internally).
	stopped bool

	// Stats
	dispatched uint64
	// wallStart anchors wall-vs-virtual time telemetry (RegisterMetrics).
	wallStart time.Time
}

// New returns an empty engine at time zero.
func New() *Engine {
	return &Engine{heap: make([]*Event, 0, 1024), wallStart: time.Now()}
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Time { return e.now }

func (e *Engine) getEvent() *Event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool = e.pool[:n-1]
		return ev
	}
	return &Event{}
}

func (e *Engine) putEvent(ev *Event) {
	ev.h = nil
	ev.pkt = nil
	ev.canceled = false
	ev.index = -1
	if len(e.pool) < 4096 {
		e.pool = append(e.pool, ev)
	}
}

// Schedule arranges for h.Handle(at, pkt) to run at virtual time at. If at
// is in the past it fires at the current time (never before). The returned
// event may be canceled until it fires.
func (e *Engine) Schedule(at units.Time, h Handler, pkt *Packet) *Event {
	if h == nil {
		panic("sim: Schedule with nil handler")
	}
	if at < e.now {
		at = e.now
	}
	ev := e.getEvent()
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.h = h
	ev.pkt = pkt
	ev.canceled = false
	e.push(ev)
	return ev
}

// After schedules h after duration d from now.
func (e *Engine) After(d units.Duration, h Handler, pkt *Packet) *Event {
	return e.Schedule(e.now.Add(d), h, pkt)
}

// Cancel marks ev so it will not fire. Safe to call on already-fired
// events only if the caller still holds the pointer from Schedule and the
// event has not been recycled; the conventional pattern is to nil out the
// saved pointer in the handler when it fires.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil {
		ev.canceled = true
	}
}

// Step executes the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for {
		ev := e.pop()
		if ev == nil {
			return false
		}
		if ev.canceled {
			e.putEvent(ev)
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", e.now, ev.at))
		}
		e.now = ev.at
		h, pkt := ev.h, ev.pkt
		e.putEvent(ev)
		e.dispatched++
		h.Handle(e.now, pkt)
		return true
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline.
func (e *Engine) RunUntil(deadline units.Time) {
	e.stopped = false
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// stop aborts a Run/RunUntil in progress after the current event.
func (e *Engine) stop() { e.stopped = true }

// --- binary heap keyed by (at, seq) ---

func (e *Engine) less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev *Event) {
	ev.index = len(e.heap)
	e.heap = append(e.heap, ev)
	e.siftUp(ev.index)
}

func (e *Engine) peek() *Event {
	// Skip over canceled events lazily so RunUntil's deadline check sees a
	// live event time.
	for len(e.heap) > 0 && e.heap[0].canceled {
		e.putEvent(e.popRoot())
	}
	if len(e.heap) == 0 {
		return nil
	}
	return e.heap[0]
}

func (e *Engine) pop() *Event {
	if len(e.heap) == 0 {
		return nil
	}
	return e.popRoot()
}

func (e *Engine) popRoot() *Event {
	root := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap[0].index = 0
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0)
	}
	root.index = -1
	return root
}

func (e *Engine) siftUp(i int) {
	ev := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(ev, e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.heap[i].index = i
		i = parent
	}
	e.heap[i] = ev
	ev.index = i
}

func (e *Engine) siftDown(i int) {
	ev := e.heap[i]
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && e.less(e.heap[right], e.heap[left]) {
			child = right
		}
		if !e.less(e.heap[child], ev) {
			break
		}
		e.heap[i] = e.heap[child]
		e.heap[i].index = i
		i = child
	}
	e.heap[i] = ev
	ev.index = i
}
