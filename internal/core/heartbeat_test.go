package core

import (
	"slices"
	"testing"

	"planck/internal/units"
)

func hbms(n int64) units.Time { return units.Time(n) * units.Time(units.Millisecond) }

func TestHeartbeatDarkAndRecover(t *testing.T) {
	m := NewHeartbeatMonitor(HeartbeatConfig{
		Interval:      2 * units.Millisecond,
		StaleAfter:    4 * units.Millisecond,
		MissThreshold: 2,
	})
	last := hbms(10)

	// Fresh ticks: no transition, no streak.
	if tr := m.Beat(hbms(12), last); tr != HeartbeatNone || m.Dark() {
		t.Fatalf("fresh beat: %v dark=%v", tr, m.Dark())
	}
	// First stale tick: miss, but below threshold.
	if tr := m.Beat(hbms(16), last); tr != HeartbeatNone || m.Dark() || m.MissStreak() != 1 {
		t.Fatalf("first miss: %v dark=%v streak=%d", tr, m.Dark(), m.MissStreak())
	}
	// Second stale tick crosses the threshold exactly once.
	if tr := m.Beat(hbms(18), last); tr != HeartbeatWentDark || !m.Dark() {
		t.Fatalf("second miss: %v dark=%v", tr, m.Dark())
	}
	if tr := m.Beat(hbms(20), last); tr != HeartbeatNone || !m.Dark() {
		t.Fatalf("went-dark must fire once: %v", tr)
	}
	// Delivery resumes: one recovery transition, then quiet.
	if tr := m.Beat(hbms(22), hbms(21)); tr != HeartbeatRecovered || m.Dark() || m.MissStreak() != 0 {
		t.Fatalf("recovery: %v dark=%v streak=%d", tr, m.Dark(), m.MissStreak())
	}
	if tr := m.Beat(hbms(24), hbms(23)); tr != HeartbeatNone {
		t.Fatalf("recovered must fire once: %v", tr)
	}
}

func TestHeartbeatNeverDelivered(t *testing.T) {
	m := NewHeartbeatMonitor(HeartbeatConfig{Interval: units.Millisecond, MissThreshold: 3})
	var tr HeartbeatTransition
	for i := int64(0); i < 3; i++ {
		tr = m.Beat(hbms(i), -1)
	}
	if tr != HeartbeatWentDark {
		t.Fatalf("a feed that never delivered must go dark after MissThreshold ticks, got %v", tr)
	}
}

func TestHeartbeatDefaults(t *testing.T) {
	m := NewHeartbeatMonitor(HeartbeatConfig{Interval: 3 * units.Millisecond})
	cfg := m.Config()
	if cfg.StaleAfter != 6*units.Millisecond {
		t.Errorf("StaleAfter default = %v, want 2×Interval", cfg.StaleAfter)
	}
	if cfg.MissThreshold != 2 {
		t.Errorf("MissThreshold default = %d, want 2", cfg.MissThreshold)
	}
}

// TestRestoreCooldowns seeds a restarted collector's per-port cooldowns
// from the event times its predecessor fired at.
func TestRestoreCooldowns(t *testing.T) {
	c := New(Config{SwitchName: "sw", NumPorts: 4, LinkRate: units.Rate1G})
	c.lastEvent[1] = hbms(60)
	c.lastEvent[2] = hbms(10) // earlier than the restored time: restore must win
	c.RestoreCooldowns(map[int]units.Time{2: hbms(50)})
	if c.lastEvent[2] != hbms(50) {
		t.Errorf("restore should take the later time: got %v", c.lastEvent[2])
	}
	if c.lastEvent[1] != hbms(60) {
		t.Errorf("restore must not regress unrelated ports: got %v", c.lastEvent[1])
	}
	// Out-of-range ports are ignored, not a panic.
	before := slices.Clone(c.lastEvent)
	c.RestoreCooldowns(map[int]units.Time{-1: hbms(1), 99: hbms(1)})
	if !slices.Equal(c.lastEvent, before) {
		t.Errorf("out-of-range restore changed cooldowns: %v, was %v", c.lastEvent, before)
	}
}
