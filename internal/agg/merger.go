package agg

import (
	"planck/internal/core"
	"planck/internal/units"
)

// LinkKey identifies one monitored egress link network-wide: the
// monitored switch's index and the egress port the congestion event
// fired for. Cooldown coherence is per link, exactly as it is per port
// inside a single collector.
type LinkKey struct {
	Switch int32
	Port   int32
}

// VantageID identifies one vantage collector within a fleet. IDs are
// 1-based (Plane.Join assigns them) so a zero Vantage on an event still
// reads as "not fleet-attributed".
type VantageID int32

// pendingEvent is one offered candidate waiting in the reorder buffer.
type pendingEvent struct {
	link    LinkKey
	vantage VantageID
	seq     uint64
	ev      core.CongestionEvent
}

// before is the merger's deterministic total order: time, then link
// (switch, port), then the offering vantage, then its offer sequence.
// The (vantage, seq) tail makes the order total even for same-time
// candidates from overlapping vantages, so emission order never depends
// on arrival interleaving.
func (a *pendingEvent) before(b *pendingEvent) bool {
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	if a.link.Switch != b.link.Switch {
		return a.link.Switch < b.link.Switch
	}
	if a.link.Port != b.link.Port {
		return a.link.Port < b.link.Port
	}
	if a.vantage != b.vantage {
		return a.vantage < b.vantage
	}
	return a.seq < b.seq
}

// EventMerger is the cross-collector congestion-event merger: it
// accepts candidate events from many vantages in arbitrary arrival
// order, re-establishes one deterministic network-wide stream order
// behind a watermark, and owns the per-link cooldown that deduplicates
// candidates across overlapping vantages, epoch skew, and supervised
// collector restarts (the cooldown state lives here, outside any
// collector process, so it survives their crashes).
//
// Semantics, which the map-based oracle in merger_test.go mirrors:
//
//   - Offer buffers a candidate unless its time is already behind the
//     watermark, in which case it is counted late and dropped (its
//     information is stale: the congestion either persisted — producing
//     newer candidates — or passed).
//   - AdvanceTo(t) raises the watermark to t and emits every buffered
//     candidate with time ≤ t in the total order above.
//   - At emission, a candidate within Cooldown of the link's previous
//     emission is suppressed as a duplicate; otherwise it is emitted
//     and becomes the link's new cooldown anchor — the same arithmetic
//     core.Collector.checkCongestion applies per port.
//
// Not safe for concurrent use; callers drive it from one goroutine
// (the simulation engine goroutine, in the lab).
type EventMerger struct {
	cooldown units.Duration
	out      func(ev core.CongestionEvent)

	heap      []pendingEvent
	emitted   map[LinkKey]units.Time
	watermark units.Time

	// Emitted counts events that cleared dedup and reached out;
	// Deduped counts candidates suppressed by the per-link cooldown;
	// Late counts candidates dropped at Offer for arriving behind the
	// watermark.
	Emitted int64
	Deduped int64
	Late    int64
}

// NewEventMerger builds a merger with the given per-link cooldown
// (0 takes the collector default, 250 µs) delivering merged events to
// out.
func NewEventMerger(cooldown units.Duration, out func(ev core.CongestionEvent)) *EventMerger {
	if cooldown <= 0 {
		cooldown = 250 * units.Microsecond
	}
	return &EventMerger{
		cooldown: cooldown,
		out:      out,
		emitted:  make(map[LinkKey]units.Time),
	}
}

// Offer buffers one candidate event from vantage v (seq is v's private
// offer counter, strictly increasing per vantage). Returns false when
// the candidate arrived behind the watermark and was dropped late.
func (m *EventMerger) Offer(link LinkKey, v VantageID, seq uint64, ev core.CongestionEvent) bool {
	if ev.Time < m.watermark {
		m.Late++
		return false
	}
	m.push(pendingEvent{link: link, vantage: v, seq: seq, ev: ev})
	return true
}

// AdvanceTo raises the watermark to t (never lowers it) and emits every
// buffered candidate with time ≤ the watermark, in stream order.
func (m *EventMerger) AdvanceTo(t units.Time) {
	if t > m.watermark {
		m.watermark = t
	}
	for len(m.heap) > 0 && m.heap[0].ev.Time <= m.watermark {
		m.emit(m.pop())
	}
}

// Flush drains the buffer completely, advancing the watermark past the
// newest buffered candidate. Call at end of run.
func (m *EventMerger) Flush() {
	for len(m.heap) > 0 {
		pe := m.pop()
		if pe.ev.Time > m.watermark {
			m.watermark = pe.ev.Time
		}
		m.emit(pe)
	}
}

func (m *EventMerger) emit(pe pendingEvent) {
	if last, ok := m.emitted[pe.link]; ok && pe.ev.Time.Sub(last) < m.cooldown {
		m.Deduped++
		return
	}
	m.emitted[pe.link] = pe.ev.Time
	m.Emitted++
	if m.out != nil {
		m.out(pe.ev)
	}
}

// Suppressed reports whether a candidate for link at time t would be
// suppressed by the link's current cooldown anchor. The aggregation
// plane uses it as an allocation-free pre-check before building an
// event's flow annotations; with buffered candidates still pending the
// answer can be a false negative, which the authoritative dedup at
// emission then catches.
func (m *EventMerger) Suppressed(link LinkKey, t units.Time) bool {
	last, ok := m.emitted[link]
	return ok && t.Sub(last) < m.cooldown
}

// Pending returns the number of buffered candidates.
func (m *EventMerger) Pending() int { return len(m.heap) }

// Oldest returns the time of the buffered candidate next in stream
// order, and false when nothing is buffered.
func (m *EventMerger) Oldest() (units.Time, bool) {
	if len(m.heap) == 0 {
		return 0, false
	}
	return m.heap[0].ev.Time, true
}

// push and pop maintain a binary min-heap ordered by before. Manual
// rather than container/heap so Offer never boxes a candidate into an
// interface (the merge path stays allocation-free in steady state).
func (m *EventMerger) push(pe pendingEvent) {
	m.heap = append(m.heap, pe)
	i := len(m.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !m.heap[i].before(&m.heap[p]) {
			break
		}
		m.heap[i], m.heap[p] = m.heap[p], m.heap[i]
		i = p
	}
}

func (m *EventMerger) pop() pendingEvent {
	top := m.heap[0]
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap[last] = pendingEvent{} // release the event's Flows slice
	m.heap = m.heap[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(m.heap) && m.heap[l].before(&m.heap[small]) {
			small = l
		}
		if r < len(m.heap) && m.heap[r].before(&m.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		m.heap[i], m.heap[small] = m.heap[small], m.heap[i]
		i = small
	}
	return top
}
