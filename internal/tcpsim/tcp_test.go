package tcpsim

import (
	"math/rand"
	"testing"

	"planck/internal/packet"
	"planck/internal/sim"
	"planck/internal/switchsim"
	"planck/internal/units"
)

func mac(i int) packet.MAC { return packet.MAC{0x02, 0, 0, 0, 0, byte(i)} }
func ip(i int) packet.IPv4 { return packet.IPv4{10, 0, 0, byte(i)} }

// directPair wires two hosts NIC-to-NIC.
func directPair(t *testing.T, rate units.Rate) (*sim.Engine, *Host, *Host) {
	t.Helper()
	eng := sim.New()
	rng := rand.New(rand.NewSource(1))
	a := NewHost(eng, "a", mac(1), ip(1), rate, rng)
	b := NewHost(eng, "b", mac(2), ip(2), rate, rng)
	sim.Connect(a.NIC(), b.NIC(), 500*units.Nanosecond)
	a.SetNeighbor(ip(2), mac(2))
	b.SetNeighbor(ip(1), mac(1))
	return eng, a, b
}

func TestDirectTransferCompletes(t *testing.T) {
	eng, a, _ := directPair(t, units.Rate10G)
	const size = 10 << 20
	c, err := a.StartFlow(0, ip(2), 5001, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	var done units.Time
	c.OnComplete = func(now units.Time, _ *Conn) { done = now }
	eng.RunUntil(units.Time(5 * units.Second))
	if !c.Completed {
		t.Fatalf("flow incomplete: acked %d of %d", c.BytesAcked(), size)
	}
	if done == 0 || c.Duration() <= 0 {
		t.Fatal("completion accounting broken")
	}
	// 10 MiB at ~9.5 Gbps is ~8.8 ms plus slow-start ramp; allow 8–40 ms.
	d := c.Duration()
	if d < 8*units.Millisecond || d > 40*units.Millisecond {
		t.Fatalf("duration %v out of plausible range", d)
	}
	if c.Retransmits != 0 {
		t.Fatalf("retransmits on a clean path: %d", c.Retransmits)
	}
}

func TestGoodputApproachesLineRate(t *testing.T) {
	eng, a, _ := directPair(t, units.Rate10G)
	const size = 100 << 20
	c, _ := a.StartFlow(0, ip(2), 5001, size, 1)
	eng.RunUntil(units.Time(10 * units.Second))
	if !c.Completed {
		t.Fatal("flow incomplete")
	}
	g := c.Goodput().Gigabits()
	// MSS/(MSS+78) * 10G = 9.49 Gbps is the ceiling (incl. preamble+IFG+FCS).
	if g < 8.8 || g > 9.5 {
		t.Fatalf("goodput %.2f Gbps", g)
	}
}

func TestSmallFlowCompletes(t *testing.T) {
	eng, a, _ := directPair(t, units.Rate10G)
	c, _ := a.StartFlow(0, ip(2), 5001, 1, 1)
	eng.RunUntil(units.Time(2 * units.Second))
	if !c.Completed {
		t.Fatal("1-byte flow incomplete")
	}
}

func TestZeroByteFlowCompletes(t *testing.T) {
	eng, a, _ := directPair(t, units.Rate10G)
	c, _ := a.StartFlow(0, ip(2), 5001, 0, 1)
	eng.RunUntil(units.Time(2 * units.Second))
	if !c.Completed {
		t.Fatal("0-byte flow incomplete")
	}
}

func TestRTTIsTestbedScale(t *testing.T) {
	eng, a, _ := directPair(t, units.Rate10G)
	c, _ := a.StartFlow(0, ip(2), 5001, 1<<20, 1)
	eng.RunUntil(units.Time(1 * units.Second))
	if !c.Completed {
		t.Fatal("incomplete")
	}
	rtt := units.Duration(c.srtt)
	// The paper reports 180–250 µs RTTs; queueing can add some.
	if rtt < 100*units.Microsecond || rtt > 2*units.Millisecond {
		t.Fatalf("SRTT %v outside testbed scale", rtt)
	}
}

func TestMissingARPEntryErrors(t *testing.T) {
	eng, a, _ := directPair(t, units.Rate10G)
	_ = eng
	if _, err := a.StartFlow(0, ip(99), 5001, 100, 1); err == nil {
		t.Fatal("flow to unknown neighbor started")
	}
}

// switched builds n hosts on one switch with MACs installed.
func switched(t *testing.T, n int, cfg switchsim.Config) (*sim.Engine, []*Host, *switchsim.Switch) {
	t.Helper()
	eng := sim.New()
	cfg.NumPorts = n
	sw, err := switchsim.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		h := NewHost(eng, "h", mac(i+1), ip(i+1), cfg.LineRate, rng)
		sim.Connect(h.NIC(), sw.Port(i), 500*units.Nanosecond)
		sw.InstallMAC(mac(i+1), i)
		hosts[i] = h
	}
	for i := range hosts {
		for j := range hosts {
			if i != j {
				hosts[i].SetNeighbor(ip(j+1), mac(j+1))
			}
		}
	}
	return eng, hosts, sw
}

func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	cfg := switchsim.ProfileG8264("sw", 0)
	eng, hosts, sw := switched(t, 3, cfg)
	const size = 64 << 20
	c1, _ := hosts[0].StartFlow(0, ip(3), 5001, size, 1)
	c2, _ := hosts[1].StartFlow(0, ip(3), 5002, size, 2)
	eng.RunUntil(units.Time(10 * units.Second))
	if !c1.Completed || !c2.Completed {
		t.Fatalf("incomplete: %v %v", c1.Completed, c2.Completed)
	}
	// 128 MiB through a shared 10G port takes >= 113 ms at the 9.49 Gbps
	// goodput ceiling; finishing within 1.6x of that bound means the pair
	// kept the bottleneck well utilized through loss recovery.
	last := c1.CompletedAt
	if c2.CompletedAt > last {
		last = c2.CompletedAt
	}
	agg := units.RateOf(128<<20, units.Duration(last)).Gigabits()
	if agg < 6.0 {
		t.Fatalf("effective aggregate %.2f Gbps (finished at %v)", agg, last)
	}
	// Neither flow should be starved outright.
	g1, g2 := c1.Goodput().Gigabits(), c2.Goodput().Gigabits()
	ratio := g1 / g2
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("starved split: %.2f vs %.2f Gbps", g1, g2)
	}
	if sw.DataDropped.Packets == 0 {
		t.Fatal("expected congestive drops at the shared port")
	}
	if c1.Retransmits+c2.Retransmits == 0 {
		t.Fatal("expected retransmissions after drops")
	}
}

func TestSlowStartBurstsVisible(t *testing.T) {
	eng, a, _ := directPair(t, units.Rate10G)
	var sent []units.Time
	a.OnSegmentSent = func(now units.Time, pkt *sim.Packet) {
		if pkt.PayloadLen > 0 {
			sent = append(sent, now)
		}
	}
	c, _ := a.StartFlow(0, ip(2), 5001, 4<<20, 1)
	eng.RunUntil(units.Time(1 * units.Second))
	if !c.Completed {
		t.Fatal("incomplete")
	}
	// Early in slow start there must be gaps near the RTT scale between
	// segment bursts.
	gaps := 0
	for i := 1; i < len(sent) && i < 200; i++ {
		if sent[i].Sub(sent[i-1]) > 100*units.Microsecond {
			gaps++
		}
	}
	if gaps < 3 {
		t.Fatalf("no slow-start burst gaps observed (gaps=%d)", gaps)
	}
}

func TestARPRerouteChangesDstMAC(t *testing.T) {
	eng, a, b := directPair(t, units.Rate10G)
	_ = b
	shadow := packet.MAC{0x02, 1, 0, 0, 0, 2}
	var updated units.Time
	a.OnARPUpdate = func(now units.Time, ip packet.IPv4, m packet.MAC) { updated = now }

	c, _ := a.StartFlow(0, ip(2), 5001, 1<<30, 1)
	_ = c
	var seenShadow bool
	a.OnSegmentSent = func(now units.Time, pkt *sim.Packet) {
		if pkt.DstMAC == shadow {
			seenShadow = true
		}
	}
	// Deliver a spoofed unicast ARP request at t=5ms, as the controller
	// would (§6.2).
	eng.Schedule(units.Time(5*units.Millisecond), sim.Callback(func(now units.Time) {
		arp := eng.NewPacket()
		arp.Kind = sim.KindARP
		arp.SrcMAC = packet.MAC{0x02, 0xff, 0, 0, 0, 0xfe}
		arp.DstMAC = mac(1)
		arp.WireLen = packet.EthernetHeaderLen + packet.ARPBodyLen
		arp.ARP = packet.ARP{
			Op:        packet.ARPRequest,
			SenderMAC: shadow, SenderIP: ip(2),
			TargetMAC: mac(1), TargetIP: ip(1),
		}
		a.Receive(now, a.NIC(), arp)
	}), nil)
	eng.RunUntil(units.Time(20 * units.Millisecond))
	if updated == 0 {
		t.Fatal("ARP cache never updated")
	}
	if !seenShadow {
		t.Fatal("flow never switched to the shadow MAC")
	}
	if got, _ := a.LookupNeighbor(ip(2)); got != shadow {
		t.Fatalf("neighbor is %v", got)
	}
}

func TestCBRSourceRate(t *testing.T) {
	eng, a, b := directPair(t, units.Rate10G)
	var got int64
	b.udpSink = func(now units.Time, pkt *sim.Packet) { got += int64(pkt.PayloadLen) }
	src, err := a.StartCBR(0, ip(2), 5001, 1000, units.Rate(1*units.Gbps), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(units.Time(100 * units.Millisecond))
	src.running = false
	// 1 Gbps of payload for 100 ms = 12.5 MB.
	want := int64(12_500_000)
	if got < want*95/100 || got > want*105/100 {
		t.Fatalf("CBR delivered %d, want ≈%d", got, want)
	}
}

func TestSeqWrapLargeOffsets(t *testing.T) {
	// Exercise the 64-bit offset mapping across a 32-bit sequence wrap by
	// constructing the sender with an ISS just below the wrap point
	// (StartFlow picks a random ISS, so build the conn by hand).
	eng, a, _ := directPair(t, units.Rate10G)
	key := connKey{remoteIP: ip(2).U32(), remotePort: 5001, localPort: a.allocPort()}
	c := &Conn{
		host:      a,
		key:       key,
		remoteIP:  ip(2),
		state:     stateSynSent,
		FlowID:    1,
		iss:       0xffff_f000, // wraps ~4 KB into the transfer
		flowSize:  4 << 20,
		cwnd:      float64(InitialCwndSegments * MSS),
		ssthresh:  1 << 60,
		recover64: -1,
		rto:       InitialRTO,
	}
	c.rtoH.c = c
	c.delackH.c = c
	a.conns[key] = c
	c.emitSyn(0)
	c.armRTO(0)
	eng.RunUntil(units.Time(1 * units.Second))
	if !c.Completed {
		t.Fatalf("flow crossing seq wrap incomplete: acked %d", c.BytesAcked())
	}
}

func TestNICBackpressureThrottlesTCP(t *testing.T) {
	// A full NIC queue must slow TCP down through backpressure, not
	// local drops (Linux qdisc/BQL behaviour).
	eng := sim.New()
	rng := rand.New(rand.NewSource(3))
	a := NewHost(eng, "a", mac(1), ip(1), units.Rate1G, rng)
	b := NewHost(eng, "b", mac(2), ip(2), units.Rate1G, rng)
	sim.Connect(a.NIC(), b.NIC(), 0)
	a.SetNeighbor(ip(2), mac(2))
	b.SetNeighbor(ip(1), mac(1))
	c, _ := a.StartFlow(0, ip(2), 5001, 8<<20, 1)
	full := false
	a.OnSegmentSent = func(units.Time, *sim.Packet) { full = full || a.txBacklog >= nicQueuePackets-1 }
	eng.RunUntil(units.Time(10 * units.Second))
	if !full {
		t.Fatal("the NIC queue never filled; the test exercised no backpressure")
	}
	if a.NICDrops != 0 {
		t.Fatalf("TCP suffered %d local drops despite backpressure", a.NICDrops)
	}
	if !c.Completed {
		t.Fatal("flow did not complete under backpressure")
	}
}

func TestNICQueueDropsUDPOverrun(t *testing.T) {
	// An unthrottled CBR source exceeding the line rate must tail-drop
	// at the NIC queue.
	eng := sim.New()
	rng := rand.New(rand.NewSource(3))
	a := NewHost(eng, "a", mac(1), ip(1), units.Rate1G, rng)
	b := NewHost(eng, "b", mac(2), ip(2), units.Rate1G, rng)
	sim.Connect(a.NIC(), b.NIC(), 0)
	a.SetNeighbor(ip(2), mac(2))
	if _, err := a.StartCBR(0, ip(2), 7000, 1000, 2*units.Gbps, 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(units.Time(100 * units.Millisecond))
	if a.NICDrops == 0 {
		t.Fatal("2 Gbps CBR into a 1 Gbps NIC never dropped")
	}
}
