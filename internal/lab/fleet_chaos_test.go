package lab

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/sim"
	"planck/internal/topo"
	"planck/internal/units"
)

// Fleet chaos: crash a vantage collector mid-run under supervision and
// require graceful degradation instead of corruption. Two hot spots
// (one per side of the fat tree) keep two edge links congested for the
// whole run; the victim's collector is crashed while both are firing.
//
// Degradation contract:
//   - the plane flags the dead vantage stale while it is dark, and
//     unflags it after the supervised restart;
//   - the merger's plane-owned cooldown anchors survive the restart, so
//     no link's event stream ever violates cooldown spacing — a
//     restarted collector replaying hot links cannot duplicate events;
//   - vantages on other switches are unaffected: their merged event
//     streams are identical to the fault-free run's;
//   - the victim resumes reporting after restart (fresh events appear).
func TestFleetChaosCrashRestart(t *testing.T) {
	const (
		runFor = 80 * units.Millisecond
		// The supervisor restarts a crashed collector at its next 2 ms
		// heartbeat tick, sooner than the plane's 2 ms staleness age, so
		// one crash never reads stale. The replacements crash too, just
		// after the 22 ms and 24 ms restarts, which leaves the victim
		// silent from 21 ms to the 26 ms restart; the probe lands inside.
		probeAt = 25 * units.Millisecond
	)
	crashes := []units.Time{
		units.Time(21 * units.Millisecond),
		units.Time(22*units.Millisecond + units.Microsecond),
		units.Time(24*units.Millisecond + units.Microsecond),
	}

	type result struct {
		events         []core.CongestionEvent
		victim         int
		victimName     string
		staleAtPro     int   // stale vantages at the mid-crash probe
		victimStale    bool  // victim flagged stale at the probe
		restarts       int64 // vantage rejoins the plane counted, every vantage
		victimRestarts int64 // the victim supervisor's collector restarts
		staleEnd       int   // stale vantages at end of run (idle switches count)
		victimEnd      bool  // victim still stale at end of run
	}

	run := func(crash bool) result {
		net := topo.FatTree16(units.Rate10G)
		l, err := New(Options{
			Net:       net,
			Mirror:    true,
			Fleet:     &Fleet{},
			Supervise: true,
			Seed:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := result{victim: net.Hosts[4].Switch}
		res.victimName = net.SwitchNames[res.victim]
		l.Ctrl.Subscribe(func(ev core.CongestionEvent) {
			ev.Flows = slices.Clone(ev.Flows)
			res.events = append(res.events, ev)
		})

		// Hot spot A: pod-0 hosts converge on host 4 (pod 1) — the victim
		// switch's egress link. Hot spot B: pod-2 hosts converge on host
		// 12 (pod 3), untouched by the crash. 40 MiB flows outlast the run.
		for i := 0; i < 4; i++ {
			if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(4), uint16(5001+i), 40<<20, int32(1+i)); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Hosts[8+i].StartFlow(0, topo.HostIP(12), uint16(6001+i), 40<<20, int32(9+i)); err != nil {
				t.Fatal(err)
			}
		}

		if crash {
			node := l.Collectors[res.victim]
			for _, at := range crashes {
				l.Eng.Schedule(at, sim.Callback(node.Crash), nil)
			}
			l.Eng.Schedule(units.Time(probeAt), sim.Callback(func(units.Time) {
				res.staleAtPro = len(l.Agg.StaleVantages())
				res.victimStale = stale(l.Agg, l.vantages[res.victim])
			}), nil)
		}
		l.Run(runFor)
		res.restarts = metric(l, "planck_agg_vantage_restarts_total")
		res.victimRestarts = l.Supervisors[res.victim].Restarts.Value()
		res.staleEnd = len(l.Agg.StaleVantages())
		res.victimEnd = stale(l.Agg, l.vantages[res.victim])
		return res
	}

	clean := run(false)
	if len(clean.events) == 0 {
		t.Fatal("fault-free fleet run produced no congestion events; chaos run would be vacuous")
	}
	victimEvents := 0
	for _, ev := range clean.events {
		if ev.SwitchName == clean.victimName {
			victimEvents++
		}
	}
	if victimEvents == 0 {
		t.Fatalf("fault-free run has no events on victim %s", clean.victimName)
	}

	chaos := run(true)

	// Stale-vantage flagging: dark during the window, recovered by the end.
	if !chaos.victimStale {
		t.Error("victim vantage not flagged stale during the crash window")
	}
	if chaos.staleAtPro == 0 {
		t.Error("plane reported no stale vantages mid-crash")
	}
	if chaos.restarts < 1 || chaos.restarts != chaos.victimRestarts {
		t.Errorf("plane recorded %d vantage restarts, the victim's supervisor %d: want the same count, >= 1",
			chaos.restarts, chaos.victimRestarts)
	}
	// Idle switches (no traffic crosses them) are legitimately stale in
	// both runs; the crash must not add to that set once restarted.
	if chaos.victimEnd {
		t.Error("victim vantage still stale at end of run; restart did not recover the feed")
	}
	if chaos.staleEnd != clean.staleEnd {
		t.Errorf("stale vantages at end: %d under crash vs %d fault-free", chaos.staleEnd, clean.staleEnd)
	}

	// Cooldown coherence across the restart: no link's merged event
	// stream may ever fire twice inside the cooldown.
	cooldown := core.Config{}.WithDefaults().EventCooldown
	lastByLink := map[string]units.Time{}
	for _, ev := range chaos.events {
		link := fmt.Sprintf("%s/%d", ev.SwitchName, ev.Port)
		if last, ok := lastByLink[link]; ok {
			if gap := ev.Time.Sub(last); gap < cooldown {
				t.Fatalf("duplicate event on %s: spacing %v < cooldown %v (restart replay leaked through)", link, gap, cooldown)
			}
		}
		lastByLink[link] = ev.Time
	}

	// Collateral-damage check: switches other than the victim emit the
	// exact same merged stream whether or not the victim's collector
	// crashed (the crash is control-plane only; the data plane and every
	// other vantage are untouched).
	others := func(evs []core.CongestionEvent, victimName string) []string {
		var out []string
		for _, ev := range evs {
			if ev.SwitchName != victimName {
				out = append(out, fmt.Sprintf("t=%d %s port=%d util=%d", ev.Time, ev.SwitchName, ev.Port, ev.Util))
			}
		}
		return out
	}
	cleanOthers := others(clean.events, clean.victimName)
	chaosOthers := others(chaos.events, chaos.victimName)
	if len(cleanOthers) == 0 {
		t.Fatal("no events from non-victim switches; collateral check vacuous")
	}
	if !reflect.DeepEqual(chaosOthers, cleanOthers) {
		t.Errorf("non-victim event streams diverge under crash: %d vs %d events",
			len(chaosOthers), len(cleanOthers))
	}

	// The victim's feed resumes after the supervised restart.
	resumed := 0
	for _, ev := range chaos.events {
		if ev.SwitchName == chaos.victimName && ev.Time > crashes[len(crashes)-1].Add(10*units.Millisecond) {
			resumed++
		}
	}
	if resumed == 0 {
		t.Error("victim emitted no events after restart; feed never recovered")
	}
}

// stale reports whether the plane's last Tick flagged v stale.
func stale(p *agg.Plane, v *agg.Vantage) bool {
	return slices.Contains(p.StaleVantages(), v)
}

// metric returns the current value of the lab registry's instrument
// with the full name name, or 0 when none is registered.
func metric(l *Lab, name string) int64 {
	for _, p := range l.Metrics.Snapshot() {
		if p.Name == name {
			return int64(p.Value)
		}
	}
	return 0
}
