// Epoch-attribution oracle (external test package so it can drive the
// real collectors): a reroute committed mid-stream must charge every
// sample to the routing epoch live at the sample's timestamp, so a run
// where the reroute lands in the middle of one large IngestBatch
// reports exactly the same per-link utilization attribution as a run
// where the reroute falls on a batch boundary. Run under -race by
// `make race-fast`.
package routing_test

import (
	"fmt"
	"sort"
	"testing"

	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/topo"
	"planck/internal/units"
)

// rerouteStream is a deterministic captured trace: two TCP flows off
// the same ingress edge switch, one of which is rerouted onto tree 2
// by a per-flow override activating at rerouteAt. Labels flip to the
// new tree for samples after activation, except one straggler frame
// that was already in flight with the old label.
type rerouteStream struct {
	ts     []units.Time
	frames [][]byte
	// splitAt is the index of the first sample at/after activation.
	splitAt int
	key     packet.FlowKey // the rerouted flow
	sw      int            // ingress edge switch under test
}

const rerouteAt = units.Time(2 * units.Millisecond)

func buildRerouteStream(t *testing.T, net *topo.Network) *rerouteStream {
	t.Helper()
	s := &rerouteStream{sw: net.Hosts[0].Switch}
	if net.Hosts[1].Switch != s.sw {
		t.Fatalf("fixture wants hosts 0 and 1 on one edge switch")
	}
	s.key = packet.FlowKey{
		SrcIP: topo.HostIP(0), DstIP: topo.HostIP(8),
		SrcPort: 1000, DstPort: 5001, Proto: packet.IPProtocolTCP,
	}
	var seqA, seqB uint32
	straggled := false
	for i := 0; i < 390; i++ {
		at := units.Time(100 * units.Microsecond).Add(units.Duration(i) * 10 * units.Microsecond)
		if at >= rerouteAt && s.splitAt == 0 {
			s.splitAt = len(s.ts)
		}
		if i%2 == 0 {
			// Flow A: rerouted at rerouteAt. The mirror tap sees the
			// post-rewrite label, so frames after activation carry
			// tree 2 — except one straggler already in flight.
			tree := 0
			if at >= rerouteAt {
				if straggled {
					tree = 2
				} else {
					straggled = true
				}
			}
			s.ts = append(s.ts, at)
			s.frames = append(s.frames, packet.BuildTCP(nil, packet.TCPSpec{
				SrcMAC: topo.ShadowMAC(0, 0), DstMAC: topo.ShadowMAC(8, tree),
				SrcIP: s.key.SrcIP, DstIP: s.key.DstIP,
				SrcPort: s.key.SrcPort, DstPort: s.key.DstPort,
				Seq: seqA, Flags: packet.TCPAck, PayloadLen: 1460,
			}))
			seqA += 1460
		} else {
			// Flow B: control traffic host1→host9, never rerouted.
			s.ts = append(s.ts, at)
			s.frames = append(s.frames, packet.BuildTCP(nil, packet.TCPSpec{
				SrcMAC: topo.ShadowMAC(1, 0), DstMAC: topo.ShadowMAC(9, 0),
				SrcIP: topo.HostIP(1), DstIP: topo.HostIP(9),
				SrcPort: 1001, DstPort: 5002,
				Seq: seqB, Flags: packet.TCPAck, PayloadLen: 1460,
			}))
			seqB += 1460
		}
	}
	if s.splitAt == 0 {
		t.Fatal("stream never crossed the reroute activation")
	}
	return s
}

// attribution is everything observable about one replay's routing
// attribution.
type attribution struct {
	utils    []units.Rate
	onPort   []string
	rateA    units.Rate
	rateB    units.Rate
	samples  int64
	unmapped int64
}

func (a attribution) String() string {
	return fmt.Sprintf("utils=%v onPort=%v rateA=%v rateB=%v samples=%d unmapped=%d",
		a.utils, a.onPort, a.rateA, a.rateB, a.samples, a.unmapped)
}

func collect(t *testing.T, col *core.Collector, net *topo.Network, st *rerouteStream) attribution {
	t.Helper()
	var a attribution
	nPorts := len(net.Ports[st.sw])
	for p := 0; p < nPorts; p++ {
		a.utils = append(a.utils, col.LinkUtilization(p))
		flows := col.FlowsOnPort(p)
		keys := make([]string, 0, len(flows))
		for _, fi := range flows {
			keys = append(keys, fi.Key.String())
		}
		sort.Strings(keys)
		a.onPort = append(a.onPort, fmt.Sprintf("p%d:%v", p, keys))
	}
	a.rateA, _ = col.FlowRate(st.key)
	a.rateB, _ = col.FlowRate(packet.FlowKey{
		SrcIP: topo.HostIP(1), DstIP: topo.HostIP(9),
		SrcPort: 1001, DstPort: 5002, Proto: packet.IPProtocolTCP,
	})
	stats := col.Stats()
	a.samples = stats.Samples
	a.unmapped = stats.UnmappedOutput
	return a
}

// runScenario replays the stream into col against a private store.
// boundary=true splits the batch exactly at the reroute activation and
// commits between the halves; boundary=false commits first and then
// delivers one batch spanning the activation.
func runScenario(t *testing.T, net *topo.Network, st *rerouteStream, col *core.Collector, boundary bool) attribution {
	t.Helper()
	store := routing.NewStore(net)
	store.Commit(0, nil) // epoch 1: base trees, install time
	col.SetPortMapper(routing.NewView(store, st.sw))

	override := func() {
		store.Commit(rerouteAt, func(tx *routing.Tx) {
			tx.SetFlowTree(st.key, 0, 8, 2)
		})
	}
	if boundary {
		if err := col.IngestBatch(st.ts[:st.splitAt], st.frames[:st.splitAt]); err != nil {
			t.Fatal(err)
		}
		override()
		if err := col.IngestBatch(st.ts[st.splitAt:], st.frames[st.splitAt:]); err != nil {
			t.Fatal(err)
		}
	} else {
		override()
		if err := col.IngestBatch(st.ts, st.frames); err != nil {
			t.Fatal(err)
		}
	}
	return collect(t, col, net, st)
}

func TestRerouteMidStreamMatchesBatchBoundary(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	stream := buildRerouteStream(t, net)
	ccfg := core.Config{SwitchName: "edge0", NumPorts: len(net.Ports[stream.sw]), LinkRate: net.LineRate}

	serialBoundary := runScenario(t, net, stream, core.New(ccfg), true)
	serialMid := runScenario(t, net, stream, core.New(ccfg), false)
	if serialBoundary.String() != serialMid.String() {
		t.Fatalf("serial attribution diverged:\n boundary: %v\n midstream: %v", serialBoundary, serialMid)
	}

	// Sanity: the rerouted flow must actually have moved port, and its
	// old port must no longer carry it.
	oldPort, _, _ := routing.NewView(routing.NewStore(net), stream.sw).ResolveOutput(0, packet.FlowKey{}, topo.ShadowMAC(8, 0))
	newPort := net.RoutePort(2, 8, stream.sw)
	if oldPort == newPort {
		t.Fatalf("degenerate fixture: tree 0 and tree 2 share port %d", oldPort)
	}
	if serialBoundary.utils[newPort] == 0 {
		t.Fatalf("no utilization attributed to the post-reroute port %d: %v", newPort, serialBoundary)
	}
}
