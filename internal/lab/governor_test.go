package lab

import (
	"testing"

	"planck/internal/core"
	"planck/internal/governor"
	"planck/internal/obs/trace"
	"planck/internal/routing"
	"planck/internal/sim"
	"planck/internal/topo"
	"planck/internal/units"
)

// governorOptions is the shared testbed: one monitored switch whose
// mirror is 2:1 oversubscribed by two saturated flows, with the
// governor closing the sampling-rate loop.
func governorOptions() Options {
	return Options{
		Net:             topo.SingleSwitch("sw0", 6, units.Rate10G, true),
		Mirror:          true,
		Seed:            17,
		CollectorConfig: core.Config{UtilThreshold: 0.95},
		Govern:          true,
	}
}

func startGovernorTraffic(t *testing.T, l *Lab, at units.Time) {
	t.Helper()
	// Hosts 0 and 1 stream to hosts 2 and 3: egress ports 2 and 3 carry
	// ~line-rate data (the high-value mirror sources), ports 0 and 1
	// carry only the returning ACKs (the low-value ones).
	if _, err := l.Hosts[0].StartFlow(at, topo.HostIP(2), 5001, 1<<30, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Hosts[1].StartFlow(at, topo.HostIP(3), 5002, 1<<30, 2); err != nil {
		t.Fatal(err)
	}
}

// TestGovernorShedsTunesAndConverges drives a 2:1 oversubscribed mirror
// and checks the whole closed loop: saturation is detected from the
// estimator, one shed/tune episode commits through the snapshot plane,
// the per-port rates land on the switch, the effective sampling rate
// recovers (intentional thinning does not count as sampling loss), the
// episode's trace span closes as converged, and sustained health
// restores the shed ports.
func TestGovernorShedsTunesAndConverges(t *testing.T) {
	opts := governorOptions()
	opts.Tracer = trace.New(256)
	l, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	gov := l.Governor(0)
	if gov == nil {
		t.Fatal("no governor on the monitored switch")
	}
	sw := l.Switches[0]
	mon := sw.MonitorPort()
	if mon < 0 {
		t.Fatal("no monitor port")
	}

	startGovernorTraffic(t, l, 0)
	l.Run(80 * units.Millisecond)

	if gov.Ticks.Value() == 0 {
		t.Fatal("governor never ticked")
	}
	eps := gov.Episodes()
	if len(eps) == 0 || gov.Commits.Value() == 0 {
		t.Fatal("governor never actuated despite 2:1 mirror oversubscription")
	}
	first := eps[0]
	if first.Kind != governor.EpisodeShedTune {
		t.Fatalf("first episode kind %v, want shed-tune", first.Kind)
	}
	if first.Effective >= 0.6 || first.Confidence < 0.5 {
		t.Fatalf("first episode triggered on estimate %.2f @ conf %.2f", first.Effective, first.Confidence)
	}
	if gov.Tunes.Value() < 2 {
		t.Fatalf("tunes = %d, want both data ports tuned", gov.Tunes.Value())
	}
	if gov.Sheds.Value() < 1 {
		t.Fatalf("sheds = %d, want the ACK-only ports shed", gov.Sheds.Value())
	}

	// The plan landed on the data plane through the snapshot diff: the
	// data ports carry per-port budgets that sum within the monitor
	// line rate, and the budgets keep the monitor queue from
	// oversubscribing again.
	var budget units.Rate
	for _, p := range []int{2, 3} {
		if !sw.PortMirrored(p) {
			t.Fatalf("data port %d was shed", p)
		}
		r := sw.PortMirrorRate(p)
		if r <= 0 {
			t.Fatalf("data port %d has no tuned rate", p)
		}
		budget += r
	}
	if budget > l.Net.LineRate {
		t.Fatalf("tuned budgets %v exceed the monitor line rate %v", budget, l.Net.LineRate)
	}
	if sw.MirrorThinned.Packets == 0 {
		t.Fatal("tuned buckets never thinned anything")
	}

	// The routing store carries the overrides — actuation went through
	// the epoch-versioned plane, not directly at the switch.
	overrides := make(map[[2]int]routing.MirrorPortConfig)
	l.Ctrl.RoutingStore().Load().EachMirrorOverride(func(sw, port int, cfg routing.MirrorPortConfig) {
		overrides[[2]int{sw, port}] = cfg
	})
	if len(overrides) == 0 {
		t.Fatal("no mirror overrides in the routing snapshot")
	}
	if got := overrides[[2]int{0, 2}]; !got.Mirrored || got.TargetRate != sw.PortMirrorRate(2) {
		t.Fatalf("snapshot override %+v disagrees with switch state %v", got, sw.PortMirrorRate(2))
	}

	// The loop closed: estimator-confirmed convergence, in order. (An
	// episode superseded by a re-plan before its actuation lands never
	// closes — the newest pending episode owns the loop — so check the
	// one that did converge.)
	if gov.ConvergedEpisodes() == 0 {
		t.Fatal("no episode converged")
	}
	var conv governor.Episode
	for _, ep := range gov.Episodes() {
		if ep.ConvergedAt != 0 {
			conv = ep
			break
		}
	}
	if conv.ActuatedAt == 0 || conv.ConvergedAt < conv.ActuatedAt || conv.ActuatedAt < conv.At {
		t.Fatalf("episode stages out of order: %+v", conv)
	}
	if eff, _ := gov.LastEstimate(); eff < 0.8 {
		t.Fatalf("effective rate %.2f at end of run; tuning did not relieve the monitor port", eff)
	}

	// Sustained health restored the shed ACK ports (with probe budgets).
	if gov.Restores.Value() == 0 {
		t.Fatal("no restore despite sustained post-tune health")
	}
	restored := 0
	for _, p := range []int{0, 1} {
		if sw.PortMirrored(p) {
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("no shed port re-admitted")
	}

	// The trace plane saw the episode end to end: a span on the monitor
	// port completed as converged.
	found := false
	for _, sp := range opts.Tracer.ConvergedSpans() {
		if sp.Port == mon && sp.ID == conv.TraceID {
			found = true
			if sp.ConvergedAt != conv.ConvergedAt {
				t.Fatalf("span converged at %v, episode at %v", sp.ConvergedAt, conv.ConvergedAt)
			}
		}
	}
	if !found {
		t.Fatalf("no converged trace span for episode %d on the monitor port", conv.TraceID)
	}
}

// TestChaosGovernorDarkGuard composes the governor with the supervised
// chaos faults: traffic begins inside a mirror-loss burst, so the first
// saturation estimate forms while the vantage is dark. The governor
// must hold its fire for the whole dark window (SkippedDark ticks, zero
// commits) and actuate promptly once the feed recovers — never from a
// dark vantage's stale estimate.
func TestChaosGovernorDarkGuard(t *testing.T) {
	opts := governorOptions()
	opts.Supervise = true
	l, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	applyFaults(t, l, "loss@20ms-35ms")
	gov := l.Governor(0)
	sup := l.Supervisors[0]
	if gov == nil || sup == nil {
		t.Fatal("governor or supervisor missing")
	}
	// Start the oversubscribing traffic inside the loss burst: the
	// saturation signal becomes actionable while the feed is dark.
	l.Eng.Schedule(units.Time(22*units.Millisecond), sim.Callback(func(now units.Time) {
		startGovernorTraffic(t, l, now)
	}), nil)
	l.Run(chaosRunFor)

	flips := sup.flips
	if len(flips) != 2 || !flips[0].Dark || flips[1].Dark {
		t.Fatalf("flips = %+v, want exactly [dark, recover]", flips)
	}
	darkAt, recoverAt := flips[0].At, flips[1].At

	if gov.SkippedDark.Value() == 0 {
		t.Fatal("governor never skipped a dark tick inside the loss burst")
	}

	// The chaos contract: zero actuations inside the dark window.
	eps := gov.Episodes()
	for _, ep := range eps {
		if !ep.At.Before(darkAt) && ep.At.Before(recoverAt) {
			t.Fatalf("governor actuated at %v, inside the dark window (%v, %v)", ep.At, darkAt, recoverAt)
		}
	}
	// And since traffic only began mid-burst, nothing can have been
	// committed before the recovery either.
	if len(eps) == 0 {
		t.Fatal("governor never actuated after the feed recovered")
	}
	if eps[0].At.Before(recoverAt) {
		t.Fatalf("first episode at %v predates recovery at %v", eps[0].At, recoverAt)
	}
	// Recovery-time actuation is prompt: within a handful of ticks of
	// the feed coming back (the estimate stayed fresh while dark).
	budget := recoverAt.Add(5 * governor.Tick)
	if budget.Before(eps[0].At) {
		t.Fatalf("first episode at %v, want within %v of recovery at %v", eps[0].At, budget, recoverAt)
	}
	if gov.Commits.Value() == 0 || gov.Tunes.Value() == 0 {
		t.Fatal("no shed/tune commit after recovery")
	}
	// The loop still closes post-chaos.
	if gov.ConvergedEpisodes() == 0 {
		t.Fatal("no episode converged after the fault cleared")
	}
}
