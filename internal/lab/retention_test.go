package lab

import (
	"slices"
	"testing"

	"planck/internal/core"
	"planck/internal/units"
)

// TestHeldEventsKeepTheirFlows: an event's Flows are borrowed from the
// collector that emitted it, and supervised delivery holds events past
// the emit — in the supervisor's queue, across a channel delay, through
// a partition's retries. Each event must reach the controller with the
// flows it was emitted with, although the collector has emitted and
// refilled its list many times since. It runs the collector's own event
// path and the fleet's, whose plane hands events to the deliverer.
func TestHeldEventsKeepTheirFlows(t *testing.T) {
	const (
		spec    = "chandelay:2ms@20ms-40ms,partition@50ms-60ms"
		runFor  = 80 * units.Millisecond
		delayTo = units.Time(40 * units.Millisecond)
	)
	type key struct {
		sw   string
		port int
		at   units.Time
	}
	for _, fleet := range []bool{false, true} {
		opts := chaosOptions()
		if fleet {
			opts.Fleet = &Fleet{}
		}
		l, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		applyFaults(t, l, spec)
		// An undelayed delivery runs inside its own emit, before a plane
		// subscriber registered after the lab's own; whichever of emit
		// and delivery comes second compares against the first's copy.
		emitted, early := map[key][]core.FlowInfo{}, map[key][]core.FlowInfo{}
		events, delivered, held, differ := 0, 0, 0, 0
		atEmit := func(ev core.CongestionEvent) {
			events++
			k := key{ev.SwitchName, ev.Port, ev.Time}
			if got, ok := early[k]; ok {
				delete(early, k)
				if !slices.Equal(got, ev.Flows) {
					differ++
				}
				return
			}
			emitted[k] = slices.Clone(ev.Flows)
		}
		if fleet {
			l.Agg.Subscribe(atEmit)
		} else {
			l.Collector(0).Subscribe(atEmit)
		}
		l.Ctrl.Subscribe(func(ev core.CongestionEvent) {
			delivered++
			if l.Eng.Now().Sub(ev.Time) > units.Millisecond {
				held++
			}
			k := key{ev.SwitchName, ev.Port, ev.Time}
			want, ok := emitted[k]
			if !ok {
				early[k] = slices.Clone(ev.Flows)
				return
			}
			if !slices.Equal(ev.Flows, want) {
				differ++
			}
		})
		startChaosTraffic(t, l)
		l.Run(runFor)

		if events < 100 || delivered == 0 {
			t.Fatalf("fleet=%v: %d events emitted, %d delivered", fleet, events, delivered)
		}
		if len(early) != 0 {
			t.Errorf("fleet=%v: %d delivered events were never emitted", fleet, len(early))
		}
		if held == 0 {
			t.Errorf("fleet=%v: no event was held past 1 ms; the delay and partition windows never engaged", fleet)
		}
		if differ != 0 {
			t.Errorf("fleet=%v: %d of %d delivered events carry flows other than those they were emitted with", fleet, differ, delivered)
		}
		t.Logf("fleet=%v: %d emitted, %d delivered, %d held over 1 ms", fleet, events, delivered, held)
	}
}
