package lab

import (
	"testing"

	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/packet"
	"planck/internal/sim"
	"planck/internal/units"
)

// TestReorderHoldEndsWithThePoll: a reorder rule holds a frame back
// until its successor, but a hold must not outlive the poll that took
// it. On a one-frame feed there is no successor, so the frame goes out
// at the poll's end instead of being lost — in order, so it does not
// count as reordered.
func TestReorderHoldEndsWithThePoll(t *testing.T) {
	eng := sim.New()
	col := core.New(core.Config{SwitchName: "sw0", NumPorts: 4, LinkRate: units.Rate10G})
	node := NewCollectorNode(eng, col, units.Rate10G, 45*units.Microsecond, 85*units.Microsecond)
	sched, err := faults.ParseSpec("reorder:1")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(sched, 1, nil)
	node.SetFaultInjector(inj)

	pkt := eng.NewPacket()
	pkt.Kind = sim.KindTCP
	pkt.SrcMAC, pkt.DstMAC = packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}
	pkt.SrcIP, pkt.DstIP = packet.IPv4{10, 0, 0, 1}, packet.IPv4{10, 0, 0, 2}
	pkt.SrcPort, pkt.DstPort = 1000, 2000
	pkt.PayloadLen = 1000
	pkt.WireLen = 1000 + sim.TCPHeaderBytes
	node.Receive(0, nil, pkt)
	eng.RunUntil(units.Time(units.Millisecond))

	if got := inj.Metrics().Reordered.Value(); got != 0 {
		t.Fatalf("reordered counter = %d for a frame released in order at the poll's end, want 0", got)
	}
	if got := col.Stats().Samples; got != 1 {
		t.Fatalf("collector ingested %d samples of a one-frame feed, want 1: the held frame was lost", got)
	}
}
