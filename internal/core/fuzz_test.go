package core

import (
	"testing"

	"planck/internal/packet"
	"planck/internal/units"
)

// FuzzIngest feeds arbitrary frames through the full collector pipeline.
// The collector sits on an oversubscribed mirror port: its input is, by
// design, whatever bytes the switch felt like sampling, so no input may
// panic it — including UDP payloads truncated around the counter.
func FuzzIngest(f *testing.F) {
	// Seed corpus: every frame family the pipeline special-cases.
	f.Add(tcpFrame(0, 1460), true)
	f.Add(tcpFrame(0, 0), true) // pure ACK
	f.Add(packet.BuildTCP(nil, packet.TCPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1, DstPort: 2, Flags: packet.TCPSyn,
	}), false)
	f.Add(packet.BuildUDP(nil, packet.UDPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1, DstPort: 2, PayloadLen: 8, Seq: 7, HasSeq: true,
	}), true)
	// Truncations straddling the UDP counter window.
	udp := packet.BuildUDP(nil, packet.UDPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1, DstPort: 2, PayloadLen: 16, Seq: 7, HasSeq: true,
	})
	for cut := len(udp) - 20; cut <= len(udp); cut += 2 {
		f.Add(append([]byte(nil), udp[:cut]...), true)
	}
	f.Add(packet.BuildARP(nil, packet.ARPSpec{
		SrcMAC: macA, DstMAC: macB, Op: packet.ARPRequest,
		SenderMAC: macA, SenderIP: ipA, TargetIP: ipB,
	}), true)
	f.Add([]byte{}, true)
	f.Add([]byte{0x08, 0x00}, false)

	f.Fuzz(func(t *testing.T, frame []byte, udpEnabled bool) {
		c := New(Config{
			SwitchName:    "fuzz",
			NumPorts:      4,
			LinkRate:      units.Rate10G,
			UDPSeqEnabled: udpEnabled,
			RingPackets:   8,
		})
		c.SetPortMapper(staticMapper{macB.U64(): 2})
		c.Subscribe(func(CongestionEvent) {})
		c.SubscribeFlowBoundaries(func(units.Time, packet.FlowKey, BoundaryKind) {})
		// Twice: once creating flow state, once against existing state.
		_ = c.Ingest(0, frame)
		_ = c.Ingest(1, frame)
		// Mutate the tail to hit the existing-flow/changed-label paths.
		if len(frame) > 0 {
			mod := append([]byte(nil), frame...)
			mod[len(mod)-1] ^= 0xff
			_ = c.Ingest(2, mod)
		}
		st := c.Stats()
		if st.Samples < 2 {
			t.Fatalf("samples not counted: %+v", st)
		}
		c.ExpireFlows(units.Time(1)*units.Time(units.Second), units.Millisecond)
	})
}
