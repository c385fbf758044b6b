package lab

import "planck/internal/units"

// The supervisor's staleness detection, fixed for the millisecond
// control loop.
const (
	// heartbeatInterval is the supervisor's tick period.
	heartbeatInterval = 2 * units.Millisecond
	// heartbeatStaleAfter is how old the feed's last delivery may be
	// before a tick counts as a miss: one interval for the batch in
	// flight plus one of slack, so an idle-but-healthy poll cycle never
	// counts as a miss.
	heartbeatStaleAfter = 2 * heartbeatInterval
	// heartbeatMissThreshold is how many consecutive misses flip the
	// feed to dark, trading one extra interval of detection latency for
	// immunity to a single late batch.
	heartbeatMissThreshold = 2
)

// heartbeatTransition is the outcome of one heartbeat check.
type heartbeatTransition uint8

const (
	// heartbeatNone: no state change this tick.
	heartbeatNone heartbeatTransition = iota
	// heartbeatWentDark: the feed just crossed the miss threshold.
	heartbeatWentDark
	// heartbeatRecovered: a dark feed just delivered again.
	heartbeatRecovered
)

// heartbeatMonitor turns "when did this feed last deliver a sample?"
// into dark/live transitions with hysteresis. It is deliberately
// clock-agnostic — beat takes explicit timestamps — so unit tests need
// no timers. It is owned by one supervisor and only touched on the
// engine goroutine.
type heartbeatMonitor struct {
	streak int
	dark   bool
}

// beat records one heartbeat check at now for a feed whose most recent
// delivery was at lastDelivery (negative means "never delivered"; the
// feed is stale until its first delivery). It returns the transition,
// if any, that this tick caused.
func (m *heartbeatMonitor) beat(now, lastDelivery units.Time) heartbeatTransition {
	stale := lastDelivery < 0 || now.Sub(lastDelivery) > heartbeatStaleAfter
	if stale {
		m.streak++
		if !m.dark && m.streak >= heartbeatMissThreshold {
			m.dark = true
			return heartbeatWentDark
		}
		return heartbeatNone
	}
	m.streak = 0
	if m.dark {
		m.dark = false
		return heartbeatRecovered
	}
	return heartbeatNone
}
