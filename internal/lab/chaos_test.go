package lab

import (
	"math"
	"slices"
	"sort"
	"testing"

	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/sim"
	"planck/internal/topo"
	"planck/internal/units"
)

// chaosSpec is the canonical robustness scenario: a total mirror-loss
// burst (the feed goes dark), a
// collector crash (supervised restart with state re-sync), and a
// controller partition (event delivery must retry through it).
const chaosSpec = "loss@20ms-35ms,crash@60500us,partition@80ms-95ms"

const (
	chaosLossFrom = units.Time(20 * units.Millisecond)
	chaosLossTo   = units.Time(35 * units.Millisecond)
	chaosCrashAt  = units.Time(60500 * units.Microsecond)
	chaosPartFrom = units.Time(80 * units.Millisecond)
	chaosPartTo   = units.Time(95 * units.Millisecond)
	chaosRunFor   = 120 * units.Millisecond
)

func chaosOptions() Options {
	return Options{
		Net:    topo.SingleSwitch("sw0", 6, units.Rate10G, true),
		Mirror: true,
		Seed:   11,
		// Low threshold: steady near-line-rate flows fire congestion
		// events every cooldown, giving the delivery path real load.
		CollectorConfig: core.Config{UtilThreshold: 0.05},
		Supervise:       true,
	}
}

// applyFaults arms spec on every collector feed of l, seeded by the
// lab's Seed.
func applyFaults(t *testing.T, l *Lab, spec string) {
	t.Helper()
	sched, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ApplyFaults(sched, l.opts.Seed); err != nil {
		t.Fatal(err)
	}
}

func startChaosTraffic(t *testing.T, l *Lab) {
	t.Helper()
	// Hosts 0 and 1 stream to hosts 2 and 3: two saturated egress ports
	// (2 and 3) observed through a 2x-oversubscribed mirror. Flow sizes
	// outlast the run.
	if _, err := l.Hosts[0].StartFlow(0, topo.HostIP(2), 5001, 1<<30, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Hosts[1].StartFlow(0, topo.HostIP(3), 5002, 1<<30, 2); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSupervisedControlLoop drives the full fault scenario against
// a supervised testbed and checks the
// robustness contract end to end:
//
//   - the mirror-loss burst flips the feed to dark within the heartbeat
//     window, and the feed flips back once the mirror recovers;
//   - the crashed collector is restarted within one heartbeat interval
//     and no congestion event is duplicated across the restart (per-port
//     event spacing never violates the cooldown);
//   - events raised during the controller partition are retried with
//     backoff and none reaches the controller while the partition is up;
//   - after the last fault clears, utilization estimates re-converge to
//     a fault-free oracle run of the identical workload.
func TestChaosSupervisedControlLoop(t *testing.T) {
	t.Run("serial", runChaos)
}

func runChaos(t *testing.T) {
	l, err := New(chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	applyFaults(t, l, chaosSpec)
	sup := l.Supervisors[0]
	if sup == nil {
		t.Fatal("no supervisor on the monitored switch")
	}

	type arrival struct {
		at units.Time
		ev core.CongestionEvent
	}
	var arrivals []arrival
	l.Ctrl.Subscribe(func(ev core.CongestionEvent) {
		ev.Flows = slices.Clone(ev.Flows)
		arrivals = append(arrivals, arrival{l.Eng.Now(), ev})
	})

	// Probe the feed mid-burst, from inside the run.
	var midDark bool
	l.Eng.Schedule(units.Time(30*units.Millisecond), sim.Callback(func(units.Time) {
		midDark = sup.Dark()
	}), nil)

	startChaosTraffic(t, l)
	l.Run(chaosRunFor)

	// The injector actually bit: the loss burst dropped mirror frames.
	if lost := l.faultMetrics.Lost.Value(); lost == 0 {
		t.Error("loss burst dropped nothing")
	}

	// (b) Dark flips. Dark must be declared within the heartbeat budget
	// of the burst start — the stale age plus MissThreshold+1 ticks of
	// quantization — and cleared shortly after the mirror recovers.
	flips := sup.flips
	if len(flips) != 2 {
		t.Fatalf("flips = %+v, want exactly [dark, recover] around the loss burst", flips)
	}
	darkBudget := chaosLossFrom.Add(heartbeatStaleAfter +
		units.Duration(heartbeatMissThreshold+1)*heartbeatInterval)
	if !flips[0].Dark || flips[0].At.Before(chaosLossFrom) || darkBudget.Before(flips[0].At) {
		t.Errorf("dark flip at %v, want in (%v, %v]", flips[0].At, chaosLossFrom, darkBudget)
	}
	recoverBudget := chaosLossTo.Add(heartbeatStaleAfter + 2*heartbeatInterval)
	if flips[1].Dark || flips[1].At.Before(chaosLossTo) || recoverBudget.Before(flips[1].At) {
		t.Errorf("recovery flip at %v, want in (%v, %v]", flips[1].At, chaosLossTo, recoverBudget)
	}
	if sup.Dark() || sup.DarkFeed.Value() != 0 {
		t.Error("feed still dark at end of run")
	}
	if !midDark {
		t.Error("feed not dark mid-burst")
	}
	if sup.MissStreak.N() == 0 {
		t.Error("heartbeat-miss histogram recorded nothing")
	}

	// Supervised restart: exactly one crash, restarted within a tick.
	if got := sup.Restarts.Value(); got != 1 {
		t.Errorf("restarts = %d, want 1", got)
	}
	if sup.gen != 1 {
		t.Errorf("generation = %d, want 1", sup.gen)
	}
	node := l.Collectors[0]
	if node.Crashed() {
		t.Error("collector still crashed at end of run")
	}
	if node.LastDelivery() <= chaosCrashAt {
		t.Error("restarted collector never delivered again")
	}

	// (a) No duplicate congestion events, crash and replay included:
	// per port, delivered events keep cooldown spacing in detection
	// time, and no (port, time) pair repeats.
	if len(arrivals) == 0 {
		t.Fatal("no congestion events delivered")
	}
	cooldown := 250 * units.Microsecond // core default; chaosOptions leaves it zero
	byPort := map[int][]units.Time{}
	for _, a := range arrivals {
		byPort[a.ev.Port] = append(byPort[a.ev.Port], a.ev.Time)
	}
	for p, ts := range byPort {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for i := 1; i < len(ts); i++ {
			if ts[i].Sub(ts[i-1]) < cooldown {
				t.Fatalf("port %d events at %v and %v violate the %v cooldown (duplicate across restart?)",
					p, ts[i-1], ts[i], cooldown)
			}
		}
	}

	// (partition) Delivery held back and retried: nothing lands while
	// the channel is severed, and the backoff counters advance.
	for _, a := range arrivals {
		if !a.at.Before(chaosPartFrom) && a.at.Before(chaosPartTo) {
			t.Fatalf("event delivered at %v, inside the partition window", a.at)
		}
	}
	dm := &sup.del.Metrics
	if dm.Retries.Value() == 0 {
		t.Error("no delivery retries despite a 15ms partition")
	}
	if dm.Delivered.Value() == 0 {
		t.Error("deliverer delivered nothing")
	}
	t.Logf("events=%d retries=%d abandoned=%d stale=%d lost=%d",
		len(arrivals), dm.Retries.Value(), dm.Abandoned.Value(),
		sup.StaleEvents.Value(), l.faultMetrics.Lost.Value())

	// (c) Re-convergence: the data plane is untouched by monitoring
	// faults, so an oracle run of the identical workload with no faults
	// must agree with the post-recovery estimates on the loaded ports.
	oracle, err := New(chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	startChaosTraffic(t, oracle)
	oracle.Run(chaosRunFor)
	for _, p := range []int{2, 3} {
		want := oracle.Collector(0).LinkUtilization(p)
		got := l.Collector(0).LinkUtilization(p)
		if want == 0 {
			t.Fatalf("oracle sees no load on port %d", p)
		}
		if diff := math.Abs(float64(got)-float64(want)) / float64(want); diff > 0.25 {
			t.Errorf("port %d utilization did not re-converge: %v vs oracle %v (%.0f%% off)",
				p, got, want, diff*100)
		}
	}
}
