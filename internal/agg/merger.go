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

// EventMerger is the plane's cross-vantage event filter. Candidates
// reach it already in network-wide stream order — the in-process fleet
// reports in engine order, and a vantagelink.Receiver releases records
// in final (time, vantage, seq) order — so it buffers nothing. It owns
// the per-link cooldown that deduplicates candidates across
// overlapping vantages, epoch skew, and supervised collector restarts
// (the cooldown state lives here, outside any collector process, so it
// survives their crashes), and it drops candidates that arrive behind
// the merge watermark.
//
// Semantics, which the model in merger_test.go mirrors:
//
//   - Offer drops a candidate whose time is behind the watermark,
//     counting it late (its information is stale: the congestion
//     either persisted — producing newer candidates — or passed).
//     Otherwise the candidate raises the watermark to its own time and
//     is emitted, unless it falls within Cooldown of the link's
//     previous emission, in which case it is suppressed as a duplicate.
//     An emitted candidate becomes the link's new cooldown anchor — the
//     same arithmetic core.Collector.checkCongestion applies per port.
//   - AdvanceTo(t) raises the watermark to t.
//
// Not safe for concurrent use; callers drive it from one goroutine
// (the simulation engine goroutine, in the lab).
type EventMerger struct {
	cooldown units.Duration
	out      func(ev core.CongestionEvent)

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
// delivering merged events to out.
func NewEventMerger(cooldown units.Duration, out func(ev core.CongestionEvent)) *EventMerger {
	return &EventMerger{
		cooldown: cooldown,
		out:      out,
		emitted:  make(map[LinkKey]units.Time),
	}
}

// Offer passes one candidate event for link through the late filter
// and the link's cooldown. Returns false when the candidate arrived
// behind the watermark and was dropped late.
func (m *EventMerger) Offer(link LinkKey, ev core.CongestionEvent) bool {
	if ev.Time < m.watermark {
		m.Late++
		return false
	}
	m.watermark = ev.Time
	if m.Suppressed(link, ev.Time) {
		m.Deduped++
		return true
	}
	m.emitted[link] = ev.Time
	m.Emitted++
	if m.out != nil {
		m.out(ev)
	}
	return true
}

// AdvanceTo raises the watermark to t (never lowers it).
func (m *EventMerger) AdvanceTo(t units.Time) {
	if t > m.watermark {
		m.watermark = t
	}
}

// Suppressed reports whether a candidate for link at time t would be
// suppressed by the link's current cooldown anchor. The aggregation
// plane uses it as an allocation-free pre-check before building an
// event's flow annotations.
func (m *EventMerger) Suppressed(link LinkKey, t units.Time) bool {
	last, ok := m.emitted[link]
	return ok && t.Sub(last) < m.cooldown
}
