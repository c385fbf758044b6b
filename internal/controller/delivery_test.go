package controller

import (
	"errors"
	"math/rand"
	"testing"

	"planck/internal/core"
	"planck/internal/sim"
	"planck/internal/units"
)

// fakeTimer collects scheduled retries so tests can fire them by hand
// with full control of virtual time.
type fakeTimer struct {
	now   units.Time
	queue []struct {
		at units.Time
		fn func(units.Time)
	}
}

func (ft *fakeTimer) after(d units.Duration, fn func(units.Time)) {
	ft.queue = append(ft.queue, struct {
		at units.Time
		fn func(units.Time)
	}{ft.now.Add(d), fn})
}

func (ft *fakeTimer) fireNext() bool {
	if len(ft.queue) == 0 {
		return false
	}
	e := ft.queue[0]
	ft.queue = ft.queue[1:]
	ft.now = e.at
	e.fn(e.at)
	return true
}

var errDown = errors.New("partitioned")

func TestDelivererRetriesUntilSuccess(t *testing.T) {
	ft := &fakeTimer{}
	fails := 3
	var deliveredAt []units.Time
	send := func(now units.Time, ev core.CongestionEvent) error {
		if fails > 0 {
			fails--
			return errDown
		}
		deliveredAt = append(deliveredAt, now)
		return nil
	}
	d := NewDeliverer(1, send, ft.after)
	d.Deliver(0, core.CongestionEvent{Port: 1})
	for ft.fireNext() {
	}
	if len(deliveredAt) != 1 {
		t.Fatalf("delivered %d times, want exactly 1", len(deliveredAt))
	}
	if got := d.Metrics.Delivered.Value(); got != 1 {
		t.Errorf("Delivered = %d, want 1", got)
	}
	if got := d.Metrics.Retries.Value(); got != 3 {
		t.Errorf("Retries = %d, want 3", got)
	}
	if got := d.Metrics.Abandoned.Value(); got != 0 {
		t.Errorf("Abandoned = %d, want 0", got)
	}
	if d.inFlight != 0 {
		t.Errorf("inFlight = %d after settling", d.inFlight)
	}
	// Three retries with base 500µs, factor 2, jitter 0.2: total backoff
	// in [0.45+0.9+1.8, 0.55+1.1+2.2] ms.
	if at := deliveredAt[0]; at < units.Time(3150*units.Microsecond) || at > units.Time(3850*units.Microsecond) {
		t.Errorf("delivery landed at %v, outside the jittered backoff envelope", at)
	}
}

func TestDelivererAbandonsAfterMaxAttempts(t *testing.T) {
	ft := &fakeTimer{}
	attempts := 0
	send := func(units.Time, core.CongestionEvent) error { attempts++; return errDown }
	d := NewDeliverer(2, send, ft.after)
	d.Deliver(0, core.CongestionEvent{})
	for ft.fireNext() {
	}
	if attempts != 6 {
		t.Errorf("attempts = %d, want maxAttempts = 6", attempts)
	}
	if got := d.Metrics.Abandoned.Value(); got != 1 {
		t.Errorf("Abandoned = %d, want 1", got)
	}
	if got := d.Metrics.Retries.Value(); got != 5 {
		t.Errorf("Retries = %d, want 5", got)
	}
}

func TestDelivererBackoffCapsAtMax(t *testing.T) {
	if got := backoff(1); got != backoffBase {
		t.Errorf("retry 1 backoff = %v, want base %v", got, backoffBase)
	}
	if got := backoff(4); got != 4*units.Millisecond {
		t.Errorf("retry 4 backoff = %v, want base × factor³ = 4ms", got)
	}
	for _, retry := range []int{5, 6, 9} {
		if got := backoff(retry); got != backoffMax {
			t.Errorf("retry %d backoff = %v, want the cap %v", retry, got, backoffMax)
		}
	}
	// Jitter scales each delay by a draw from [1−J/2, 1+J/2].
	rng := rand.New(rand.NewSource(3))
	for retry := 1; retry <= 9; retry++ {
		b := float64(backoff(retry))
		if got := float64(backoffDelay(retry, rng)); got < b*(1-backoffJitter/2) || got > b*(1+backoffJitter/2) {
			t.Errorf("retry %d delay = %v outside the jitter envelope of %v", retry, units.Duration(got), units.Duration(b))
		}
	}
}

func TestDelivererDeterministicJitter(t *testing.T) {
	run := func(seed int64) []units.Duration {
		d := NewDeliverer(seed, nil, nil)
		var out []units.Duration
		for i := 1; i <= 5; i++ {
			out = append(out, backoffDelay(i, d.rng))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i+1, a[i], b[i])
		}
	}
}

func TestSimDelivererFiresOnEngine(t *testing.T) {
	eng := sim.New()
	downUntil := units.Time(5 * units.Millisecond)
	var deliveredAt units.Time
	send := func(now units.Time, ev core.CongestionEvent) error {
		if now.Before(downUntil) {
			return errDown
		}
		deliveredAt = now
		return nil
	}
	d := NewSimDeliverer(eng, 5, send)
	d.Deliver(eng.Now(), core.CongestionEvent{Port: 2})
	eng.RunUntil(units.Time(50 * units.Millisecond))
	if deliveredAt == 0 {
		t.Fatalf("event never delivered through the engine timer (retries=%d abandoned=%d)",
			d.Metrics.Retries.Value(), d.Metrics.Abandoned.Value())
	}
	if deliveredAt.Before(downUntil) {
		t.Fatalf("delivered at %v while the channel was still down", deliveredAt)
	}
	if d.Metrics.Retries.Value() == 0 {
		t.Error("expected at least one retry before the partition healed")
	}
}
