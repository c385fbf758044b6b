package lab

import (
	"slices"
	"strings"
	"testing"

	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/packet"
	"planck/internal/tcpsim"
	"planck/internal/topo"
	"planck/internal/units"
)

func TestSingleSwitchTestbed(t *testing.T) {
	net := topo.SingleSwitch("sw0", 4, units.Rate10G, true)
	l, err := New(Options{Net: net, Mirror: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := l.Hosts[0].StartFlow(0, topo.HostIP(1), 5001, 20<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Run(500 * units.Millisecond)
	if !c.Completed {
		t.Fatalf("flow incomplete: %d acked", c.BytesAcked())
	}
	col := l.Collector(0)
	if col == nil {
		t.Fatal("no collector")
	}
	st := col.Stats()
	if st.Samples == 0 {
		t.Fatal("collector saw no samples")
	}
	// Undersubscribed mirror: every data packet (both directions) is
	// sampled.
	r, ok := col.FlowRate(c.FlowKey())
	if !ok {
		t.Fatal("flow not in collector table")
	}
	if g := r.Gigabits(); g < 0 {
		t.Fatalf("rate %v", g)
	}
	if l.Collectors[0].IngestErrors != 0 {
		t.Fatalf("ingest errors %d", l.Collectors[0].IngestErrors)
	}
}

// TestUndersubscribedSampleLatency reproduces §5.2: with light traffic
// (the mirror far below line rate), sample latency is 75–150 µs at
// 10 Gbps — dominated by the sender's kernel path and collector polling.
func TestUndersubscribedSampleLatency(t *testing.T) {
	net := topo.SingleSwitch("sw0", 4, units.Rate10G, true)
	l, err := New(Options{Net: net, Mirror: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Hosts[0].StartCBR(0, topo.HostIP(1), 7000, 1000, units.Rate(1*units.Gbps), 1); err != nil {
		t.Fatal(err)
	}
	l.Run(100 * units.Millisecond)
	node := l.Collectors[0]
	if node.SampleLatency.N() == 0 {
		t.Fatal("no latency samples")
	}
	med := node.SampleLatency.Median()
	if med < 60 || med > 200 {
		t.Fatalf("median sample latency %.1f µs, want ≈75–150", med)
	}
	if lo, hi := node.SampleLatency.Quantile(0.01), node.SampleLatency.Quantile(0.99); lo < 50 || hi > 250 {
		t.Fatalf("sample latency spread [%.0f, %.0f] µs", lo, hi)
	}
}

func TestFatTreeTestbedAllPairs(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	l, err := New(Options{Net: net, Mirror: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A handful of flows spanning intra-edge, intra-pod, and inter-pod
	// paths.
	pairs := [][2]int{{0, 8}, {3, 12}, {5, 14}, {9, 2}, {15, 0}, {0, 1}, {2, 3}}
	var conns []*tcpsim.Conn
	for i, p := range pairs {
		conn, err := l.Hosts[p[0]].StartFlow(0, topo.HostIP(p[1]), uint16(5001+i), 4<<20, int32(i))
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	l.Run(2 * units.Second)
	// All flows complete and every traversed switch's collector saw
	// samples.
	for i, conn := range conns {
		if !conn.Completed {
			t.Fatalf("host %d flow incomplete (%d/%d)", pairs[i][0], conn.BytesAcked(), 4<<20)
		}
	}
	saw := 0
	for s := range l.Switches {
		if col := l.Collector(s); col != nil && col.Stats().Samples > 0 {
			saw++
		}
	}
	if saw < 5 {
		t.Fatalf("only %d collectors saw traffic", saw)
	}
}

func TestCongestionEventOnFatTree(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	// Force both flows onto the same initial tree so they collide.
	trees := make([]int, 16)
	l, err := New(Options{Net: net, Mirror: true, Seed: 3, InitialTrees: trees})
	if err != nil {
		t.Fatal(err)
	}
	var events []core.CongestionEvent
	l.Ctrl.Subscribe(func(ev core.CongestionEvent) {
		ev.Flows = slices.Clone(ev.Flows)
		events = append(events, ev)
	})
	// Hosts 0 and 4 both send to pod 2 via tree 0: they share the
	// agg->core->agg path segments.
	l.Hosts[0].StartFlow(0, topo.HostIP(8), 5001, 50<<20, 1)
	l.Hosts[4].StartFlow(0, topo.HostIP(9), 5002, 50<<20, 2)
	l.Run(200 * units.Millisecond)
	if len(events) == 0 {
		t.Fatal("no congestion events despite a shared core link")
	}
	ev := events[0]
	if len(ev.Flows) == 0 {
		t.Fatal("event carries no flow annotations")
	}
	// Detection should be fast: both flows start at ~0 and the first
	// event must arrive within a few ms (paper: first estimates within
	// one slow-start RTT once the link saturates).
	if ev.Time > units.Time(100*units.Millisecond) {
		t.Fatalf("first event at %v", ev.Time)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, float64) {
		net := topo.FatTree16(units.Rate10G)
		l, err := New(Options{Net: net, Mirror: true, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		c1, _ := l.Hosts[0].StartFlow(0, topo.HostIP(8), 5001, 8<<20, 1)
		c2, _ := l.Hosts[1].StartFlow(0, topo.HostIP(9), 5002, 8<<20, 2)
		l.Run(300 * units.Millisecond)
		var samples int64
		for s := range l.Switches {
			if col := l.Collector(s); col != nil {
				samples += col.Stats().Samples
			}
		}
		return int64(c1.CompletedAt), samples, float64(c2.BytesAcked())
	}
	a1, a2, a3 := run()
	b1, b2, b3 := run()
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("nondeterministic: (%d,%d,%f) vs (%d,%d,%f)", a1, a2, a3, b1, b2, b3)
	}
}

// TestInSwitchCollectors exercises §9.2's in-switch collector proposal:
// identical flow visibility, but samples skip the monitor port entirely,
// so even a 3x-oversubscribed configuration shows only the processing
// overhead.
func TestInSwitchCollectors(t *testing.T) {
	net := topo.SingleSwitch("sw0", 6, units.Rate10G, true)
	l, err := New(Options{Net: net, Mirror: true, InSwitchCollectors: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(i+3), 5001, 1<<30, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Run(100 * units.Millisecond)
	col := l.Collector(0)
	st := col.Stats()
	if st.Flows < 3 {
		t.Fatalf("flows %d", st.Flows)
	}
	// Every data packet is sampled (no mirror drops) and latency is just
	// the processing overhead (~85 µs) even at 3x offered load.
	node := l.Collectors[0]
	if med := node.SampleLatency.Median(); med > 150 {
		t.Fatalf("in-switch sample latency %.0f µs", med)
	}
	if l.Switches[0].MirrorDropped.Packets != 0 {
		t.Fatalf("in-switch mode dropped %d samples", l.Switches[0].MirrorDropped.Packets)
	}
}

// TestFlowBoundariesEndToEnd: a complete flow's SYN and FIN both reach
// the collector, giving the §9.2 flow-lifecycle visibility.
func TestFlowBoundariesEndToEnd(t *testing.T) {
	net := topo.SingleSwitch("sw0", 4, units.Rate10G, true)
	l, err := New(Options{Net: net, Mirror: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var starts, ends int
	l.Collector(0).SubscribeFlowBoundaries(func(_ units.Time, _ packet.FlowKey, kind core.BoundaryKind) {
		if kind == core.FlowStart {
			starts++
		} else {
			ends++
		}
	})
	c, err := l.Hosts[0].StartFlow(0, topo.HostIP(1), 5001, 4<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Run(200 * units.Millisecond)
	if !c.Completed {
		t.Fatal("flow incomplete")
	}
	if starts < 1 {
		t.Fatalf("starts %d", starts)
	}
	if ends < 1 {
		t.Fatalf("ends %d", ends)
	}
}

// TestNewRejectsBadOptions: every option error New can return, each
// named in its message.
func TestNewRejectsBadOptions(t *testing.T) {
	net := topo.SingleSwitch("sw0", 4, units.Rate10G, true)
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"nil Net", Options{Mirror: true}, "Net is required"},
		{"Fleet without Mirror", Options{Net: net, Fleet: &Fleet{}}, "Fleet requires Mirror"},
		{"Govern without Mirror", Options{Net: net, Govern: true}, "Govern requires Mirror"},
		{"bad Link.FaultSpec", Options{Net: net, Mirror: true, Fleet: &Fleet{Link: &Link{FaultSpec: "nonsense"}}}, "lab: Fleet.Link.FaultSpec:"},
		{"MonitorSwitches out of range", Options{Net: net, Mirror: true, MonitorSwitches: []int{1}}, "MonitorSwitches entry 1 out of range"},
	} {
		l, err := New(tc.opts)
		if err == nil || l != nil {
			t.Errorf("%s: New = (%v, %v), want an error", tc.name, l, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestApplyFaultsNeedsSupervisorForSupervisorFaults: ApplyFaults on a
// built lab refuses a rule only a Supervisor acts on, and leaves the lab
// fault-free; a mirror-path schedule it takes.
func TestApplyFaultsNeedsSupervisorForSupervisorFaults(t *testing.T) {
	l, err := New(Options{Net: topo.SingleSwitch("sw0", 4, units.Rate10G, true), Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"crash@3ms", "partition@1ms-2ms", "chandelay:1ms", "loss:0.5,crash@3ms"} {
		sched, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.ApplyFaults(sched, 1); err == nil || !strings.Contains(err.Error(), "only a Supervisor acts on") {
			t.Errorf("ApplyFaults(%s) on an unsupervised lab: %v, want a refusal", spec, err)
		}
		if l.Faults != nil || l.faultMetrics != nil {
			t.Errorf("ApplyFaults(%s) was refused but armed the lab", spec)
		}
	}
	sched, err := faults.ParseSpec("loss:0.5@1ms-2ms,stall@3ms-4ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ApplyFaults(sched, 1); err != nil {
		t.Errorf("ApplyFaults(%s): %v", sched, err)
	}
}
