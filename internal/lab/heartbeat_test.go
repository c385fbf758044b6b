package lab

import (
	"testing"

	"planck/internal/units"
)

func hbms(n int64) units.Time { return units.Time(n) * units.Time(units.Millisecond) }

func TestHeartbeatDarkAndRecover(t *testing.T) {
	var m heartbeatMonitor
	last := hbms(10)

	// Fresh ticks: no transition, no streak.
	if tr := m.beat(hbms(12), last); tr != heartbeatNone || m.dark {
		t.Fatalf("fresh beat: %v dark=%v", tr, m.dark)
	}
	// First stale tick: miss, but below threshold.
	if tr := m.beat(hbms(16), last); tr != heartbeatNone || m.dark || m.streak != 1 {
		t.Fatalf("first miss: %v dark=%v streak=%d", tr, m.dark, m.streak)
	}
	// Second stale tick crosses the threshold exactly once.
	if tr := m.beat(hbms(18), last); tr != heartbeatWentDark || !m.dark {
		t.Fatalf("second miss: %v dark=%v", tr, m.dark)
	}
	if tr := m.beat(hbms(20), last); tr != heartbeatNone || !m.dark {
		t.Fatalf("went-dark must fire once: %v", tr)
	}
	// Delivery resumes: one recovery transition, then quiet.
	if tr := m.beat(hbms(22), hbms(21)); tr != heartbeatRecovered || m.dark || m.streak != 0 {
		t.Fatalf("recovery: %v dark=%v streak=%d", tr, m.dark, m.streak)
	}
	if tr := m.beat(hbms(24), hbms(23)); tr != heartbeatNone {
		t.Fatalf("recovered must fire once: %v", tr)
	}
}

func TestHeartbeatNeverDelivered(t *testing.T) {
	var m heartbeatMonitor
	var tr heartbeatTransition
	for i := int64(0); i < heartbeatMissThreshold; i++ {
		if tr != heartbeatNone {
			t.Fatalf("dark after %d of %d misses", i, heartbeatMissThreshold)
		}
		tr = m.beat(hbms(2*i), -1)
	}
	if tr != heartbeatWentDark {
		t.Fatalf("a feed that never delivered must go dark after heartbeatMissThreshold ticks, got %v", tr)
	}
}
