package routing_test

import (
	"testing"

	"planck/internal/core"
	"planck/internal/obs/trace"
	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/topo"
	"planck/internal/units"
)

// TestViewHotPathDoesNotAllocate pins the reader side of the routing
// plane as allocation-free: the per-sample ResolveOutput (through a
// flow override and around it), the per-batch Refresh, and a collector
// ingesting through a View with an idle control-loop tracer attached.
// Each count is one run over a loop, so that a single allocation counts:
// AllocsPerRun rounds its mean down.
func TestViewHotPathDoesNotAllocate(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	st := routing.NewStore(net)
	key := packet.FlowKey{
		SrcIP: topo.HostIP(0), DstIP: topo.HostIP(8),
		SrcPort: 1000, DstPort: 5001, Proto: packet.IPProtocolTCP,
	}
	st.Commit(0, func(tx *routing.Tx) { tx.SetFlowTree(key, 0, 8, 2) })
	v := routing.NewView(st, net.Hosts[0].Switch)
	other := key
	other.DstPort = 9999
	label := topo.ShadowMAC(8, 0)
	var at units.Time
	if a := testing.AllocsPerRun(1, func() {
		for range 1000 {
			v.Refresh()
			for _, k := range []packet.FlowKey{key, other} {
				if _, _, ok := v.ResolveOutput(at, k, label); !ok {
					t.Fatal("unresolvable label")
				}
			}
			at = at.Add(123)
		}
	}); a != 0 {
		t.Errorf("Refresh + ResolveOutput allocate %.0f times in 1000 calls", a)
	}

	col := core.New(core.Config{
		SwitchName: "edge0", NumPorts: len(net.Ports[net.Hosts[0].Switch]),
		LinkRate: net.LineRate, Tracer: trace.New(64),
	})
	col.SetPortMapper(routing.NewView(st, net.Hosts[0].Switch))
	frame := packet.BuildTCP(nil, packet.TCPSpec{
		SrcMAC: topo.ShadowMAC(0, 0), DstMAC: label, SrcIP: key.SrcIP, DstIP: key.DstIP,
		SrcPort: key.SrcPort, DstPort: key.DstPort, Flags: packet.TCPAck, PayloadLen: 1460,
	})
	var seq uint32
	if a := testing.AllocsPerRun(1, func() {
		for range 1000 {
			frame = packet.BuildTCP(frame, packet.TCPSpec{
				SrcMAC: topo.ShadowMAC(0, 0), DstMAC: label, SrcIP: key.SrcIP, DstIP: key.DstIP,
				SrcPort: key.SrcPort, DstPort: key.DstPort, Seq: seq, Flags: packet.TCPAck, PayloadLen: 1460,
			})
			if err := col.Ingest(at, frame); err != nil {
				t.Fatal(err)
			}
			seq += 1460
			at = at.Add(1230)
		}
	}); a != 0 {
		t.Errorf("traced ingest through a View allocates %.0f times in 1000 samples", a)
	}
	if s := col.Stats(); s.UnmappedOutput != 0 {
		t.Fatalf("%d unmapped samples; the label must resolve", s.UnmappedOutput)
	}
}
