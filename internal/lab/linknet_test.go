package lab

import (
	"fmt"
	"slices"
	"testing"

	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/sim"
	"planck/internal/topo"
	"planck/internal/units"
)

// hotFleet builds a fleet testbed with two persistent hot spots (one
// per side of the fat tree) and returns the lab plus the switch index
// carrying hot spot A's egress (host 4's edge switch).
func hotFleet(t *testing.T, opts Options) (*Lab, int) {
	t.Helper()
	net := topo.FatTree16(units.Rate10G)
	opts.Net = net
	opts.Mirror = true
	if opts.Fleet == nil {
		opts.Fleet = &Fleet{}
	}
	l, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(4), uint16(5001+i), 40<<20, int32(1+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Hosts[8+i].StartFlow(0, topo.HostIP(12), uint16(6001+i), 40<<20, int32(9+i)); err != nil {
			t.Fatal(err)
		}
	}
	return l, net.Hosts[4].Switch
}

func assertCooldownSpacing(t *testing.T, events []core.CongestionEvent) {
	t.Helper()
	cooldown := core.Config{}.WithDefaults().EventCooldown
	lastByLink := map[string]units.Time{}
	for _, ev := range events {
		link := fmt.Sprintf("%s/%d", ev.SwitchName, ev.Port)
		if last, ok := lastByLink[link]; ok {
			if gap := ev.Time.Sub(last); gap < cooldown {
				t.Fatalf("duplicate event on %s: spacing %v < cooldown %v", link, gap, cooldown)
			}
		}
		lastByLink[link] = ev.Time
	}
}

// TestFleetTransportSmoke runs the fleet over the wire transport with
// 5% report loss: congestion events still reach the controller, no
// link ever violates cooldown spacing (exactly-once detection), the
// NACK loop demonstrably recovered losses, and every monitored
// vantage delivered reports to the plane.
func TestFleetTransportSmoke(t *testing.T) {
	l, _ := hotFleet(t, Options{
		Fleet: &Fleet{Link: &Link{FaultSpec: "loss:0.05"}},
		Seed:  7,
	})
	var events []core.CongestionEvent
	l.Agg.Subscribe(func(ev core.CongestionEvent) {
		ev.Flows = slices.Clone(ev.Flows)
		events = append(events, ev)
	})
	l.Run(60 * units.Millisecond)

	if len(events) == 0 {
		t.Fatal("no congestion events over the transport; the fleet is blind")
	}
	assertCooldownSpacing(t, events)

	rx := l.LinkReceiver()
	if rx == nil {
		t.Fatal("no link receiver in transport mode")
	}
	if rx.RecordsReleased() == 0 {
		t.Fatal("no records released to the plane")
	}
	if rx.GapsDetected() == 0 {
		t.Fatal("5% loss produced no sequence gaps; the fault gate is not on the path")
	}
	resends := int64(0)
	lost := int64(0)
	active := 0
	for s := 0; s < l.Net.NumSwitches(); s++ {
		snd := l.LinkSender(s)
		if snd == nil {
			continue
		}
		resends += snd.Resends()
		if g := l.LinkGate(s); g != nil {
			lost += g.Met.Lost.Value()
		}
		if snd.RecordsSent() > 0 {
			active++
			if _, synced := snd.Offset(); !synced {
				t.Errorf("switch %d sender never completed clock sync", s)
			}
		}
	}
	if lost == 0 {
		t.Fatal("fault gates dropped nothing at 5% loss")
	}
	if resends == 0 {
		t.Fatal("no retransmits despite injected loss")
	}
	if active == 0 {
		t.Fatal("no vantage sent any records")
	}
	// Loss is recovered, not silently dropped: every frame the gates
	// lost was NACKed back into the stream (abandonment means the
	// 10-attempt budget ran out — it must not trigger at 5% loss).
	if rx.Abandoned() != 0 {
		t.Fatalf("%d gaps abandoned at 5%% loss; NACK recovery should cover this", rx.Abandoned())
	}
}

// TestFleetTransportMatchesInProcessEvents runs the same workload with
// the in-process sink and with a fault-free wire transport. The
// transport adds channel latency and a reorder window, so event
// *times* shift — but the set of congested links detected must match:
// federation semantics do not change with the delivery mechanism.
func TestFleetTransportMatchesInProcessEvents(t *testing.T) {
	type outcome struct {
		links map[string]bool
		n     int
	}
	run := func(link *Link) outcome {
		l, _ := hotFleet(t, Options{Fleet: &Fleet{Link: link}, Seed: 7})
		o := outcome{links: map[string]bool{}}
		l.Agg.Subscribe(func(ev core.CongestionEvent) {
			o.links[fmt.Sprintf("%s/%d", ev.SwitchName, ev.Port)] = true
			o.n++
		})
		l.Run(60 * units.Millisecond)
		return o
	}
	inproc := run(nil)
	link := run(&Link{})
	if inproc.n == 0 {
		t.Fatal("in-process run emitted no events; comparison vacuous")
	}
	if link.n == 0 {
		t.Fatal("transport run emitted no events")
	}
	for lk := range inproc.links {
		if !link.links[lk] {
			t.Errorf("link %s congested in-process but never detected over the transport", lk)
		}
	}
	for lk := range link.links {
		if !inproc.links[lk] {
			t.Errorf("link %s detected over the transport but not in-process", lk)
		}
	}
}

// TestFleetChaosPartitionedLink is the crash test's dual: the victim's
// collector stays alive but its report channel is partitioned — the
// vantage process is healthy (supervisor heartbeat never goes dark)
// while the plane stops hearing from it.
//
// Degradation contract:
//   - the plane flags the victim vantage stale during the partition
//     while the supervisor does NOT flip to dark (it watches the local
//     mirror feed, which is fine);
//   - after the heal, the partition-era backlog recovers via NACK and
//     the victim un-stales;
//   - no link's merged event stream ever violates cooldown spacing —
//     the backlog replay cannot double-fire events (exactly-once).
func TestFleetChaosPartitionedLink(t *testing.T) {
	const (
		partStart = 20 * units.Millisecond
		partEnd   = 32 * units.Millisecond
		probeAt   = 28 * units.Millisecond
		runFor    = 80 * units.Millisecond
	)
	l, victim := hotFleet(t, Options{
		Fleet:     &Fleet{Link: &Link{}},
		Supervise: true,
		Seed:      7,
	})
	var events []core.CongestionEvent
	l.Agg.Subscribe(func(ev core.CongestionEvent) {
		ev.Flows = slices.Clone(ev.Flows)
		events = append(events, ev)
	})

	gate := l.LinkGate(victim)
	if gate == nil {
		t.Fatal("victim has no link gate")
	}
	gate.SetSchedule(faults.NewSchedule(faults.Rule{
		Kind: faults.KindPartition, From: units.Time(partStart), To: units.Time(partEnd), Prob: 1,
	}), 99)

	var victimStale, supDark, excluded bool
	l.Eng.Schedule(units.Time(probeAt), sim.Callback(func(units.Time) {
		victimStale = stale(l.Agg, l.vantages[victim])
		supDark = l.Supervisors[victim].Dark()
		excluded = l.LinkReceiver().Excluded(uint16(l.vantages[victim].ID()))
	}), nil)
	l.Run(runFor)

	if !victimStale {
		t.Error("victim vantage not flagged stale during the partition")
	}
	if supDark {
		t.Error("supervisor went dark during a report-channel partition; the local mirror feed was healthy")
	}
	if !excluded {
		t.Error("receiver never excluded the silent vantage from the merge watermark")
	}
	if stale(l.Agg, l.vantages[victim]) {
		t.Error("victim vantage still stale at end of run; the healed channel never recovered")
	}
	if l.LinkReceiver().Excluded(uint16(l.vantages[victim].ID())) {
		t.Error("victim still excluded from the watermark at end of run")
	}

	// Exactly-once after the heal: the NACK-recovered backlog must not
	// double-fire any link's events.
	assertCooldownSpacing(t, events)
	victimName := l.Net.SwitchNames[victim]
	resumed := 0
	for _, ev := range events {
		if ev.SwitchName == victimName && ev.Time > units.Time(partEnd)+units.Time(5*units.Millisecond) {
			resumed++
		}
	}
	if resumed == 0 {
		t.Error("victim emitted no events after the heal; the report path never recovered")
	}
}
