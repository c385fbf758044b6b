package switchsim

import (
	"testing"

	"planck/internal/packet"
	"planck/internal/sim"
	"planck/internal/units"
)

// hostStub terminates links with arrival accounting.
type hostStub struct {
	name string
	eng  *sim.Engine
	n    int
	at   []units.Time
	last *sim.Packet
	keep bool
}

func (h *hostStub) Name() string { return h.name }
func (h *hostStub) Receive(now units.Time, _ *sim.Port, pkt *sim.Packet) {
	h.n++
	h.at = append(h.at, now)
	if h.keep {
		cp := *pkt
		h.last = &cp
	}
	h.eng.FreePacket(pkt)
}

func mac(i int) packet.MAC { return packet.MAC{0x02, 0, 0, 0, 0, byte(i)} }
func ip(i int) packet.IPv4 { return packet.IPv4{10, 0, 0, byte(i)} }

func smallConfig() Config {
	return Config{
		Name:                "sw",
		NumPorts:            6,
		LineRate:            units.Rate10G,
		SharedBufferBytes:   9 << 20,
		PerPortReserveBytes: 20 << 10,
		DTAlpha:             0.8,
		MirrorBufferBytes:   4 << 20,
	}
}

// rig builds a switch with stub hosts on every port.
func rig(t *testing.T, cfg Config) (*sim.Engine, *Switch, []*hostStub, []*sim.Fifo) {
	t.Helper()
	eng := sim.New()
	sw, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*hostStub, cfg.NumPorts)
	qs := make([]*sim.Fifo, cfg.NumPorts)
	for i := 0; i < cfg.NumPorts; i++ {
		hosts[i] = &hostStub{name: "h", eng: eng}
		p := sim.NewPort(eng, hosts[i], 0, cfg.LineRate)
		qs[i] = &sim.Fifo{}
		p.SetSource(qs[i])
		sim.Connect(p, sw.Port(i), 100*units.Nanosecond)
	}
	return eng, sw, hosts, qs
}

func tcpPkt(eng *sim.Engine, src, dst int, payload int) *sim.Packet {
	p := eng.NewPacket()
	p.Kind = sim.KindTCP
	p.SrcMAC, p.DstMAC = mac(src), mac(dst)
	p.SrcIP, p.DstIP = ip(src), ip(dst)
	p.SrcPort, p.DstPort = 1000, 2000
	p.PayloadLen = payload
	p.WireLen = payload + sim.TCPHeaderBytes
	return p
}

// inject pushes a packet from host i's queue through its link.
func inject(eng *sim.Engine, qs []*sim.Fifo, i int, pkt *sim.Packet, hosts []*hostStub) {
	qs[i].Enqueue(pkt)
	hosts[i].eng = eng
}

func TestForwardByMAC(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	pkt := tcpPkt(eng, 1, 2, 1000)
	inject(eng, qs, 1, pkt, hosts)
	hostPort := sw.Port(1).Peer()
	hostPort.Kick(0)
	eng.Run()
	if hosts[2].n != 1 {
		t.Fatalf("host2 got %d packets", hosts[2].n)
	}
	if sw.DataForwarded.Packets != 1 || sw.DataDropped.Packets != 0 {
		t.Fatalf("forwarded %d dropped %d", sw.DataForwarded.Packets, sw.DataDropped.Packets)
	}
}

func TestTableMissDrops(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	pkt := tcpPkt(eng, 1, 2, 1000)
	inject(eng, qs, 1, pkt, hosts)
	sw.Port(1).Peer().Kick(0)
	eng.Run()
	if sw.TableMisses.Packets != 1 {
		t.Fatalf("misses %d", sw.TableMisses.Packets)
	}
	if hosts[2].n != 0 {
		t.Fatal("delivered despite miss")
	}
}

func TestEgressRewrite(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	shadow := packet.MAC{0x02, 1, 0, 0, 0, 2}
	sw.InstallMAC(shadow, 2)
	sw.InstallRewrite(shadow, mac(2))
	hosts[2].keep = true
	pkt := tcpPkt(eng, 1, 2, 100)
	pkt.DstMAC = shadow
	inject(eng, qs, 1, pkt, hosts)
	sw.Port(1).Peer().Kick(0)
	eng.Run()
	if hosts[2].n != 1 {
		t.Fatalf("delivered %d", hosts[2].n)
	}
	if hosts[2].last.DstMAC != mac(2) {
		t.Fatalf("dst mac not restored: %v", hosts[2].last.DstMAC)
	}
}

func TestFlowRuleRewriteAndCount(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	shadow := packet.MAC{0x02, 1, 0, 0, 0, 2}
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(shadow, 3) // alternate path exits port 3
	key := packet.FlowKey{SrcIP: ip(1), DstIP: ip(2), SrcPort: 1000, DstPort: 2000, Proto: packet.IPProtocolTCP}
	rule := sw.InstallFlowRule(FlowRule{Match: key, RewriteDst: true, NewDst: shadow})
	pkt := tcpPkt(eng, 1, 2, 500)
	inject(eng, qs, 1, pkt, hosts)
	sw.Port(1).Peer().Kick(0)
	eng.Run()
	if hosts[3].n != 1 || hosts[2].n != 0 {
		t.Fatalf("rewrite did not redirect: p2=%d p3=%d", hosts[2].n, hosts[3].n)
	}
	if rule.Counter.Packets != 1 || rule.Counter.Bytes != int64(500+sim.TCPHeaderBytes) {
		t.Fatalf("rule counter %+v", rule.Counter)
	}
	delete(sw.flowRules, key)
	pkt2 := tcpPkt(eng, 1, 2, 500)
	inject(eng, qs, 1, pkt2, hosts)
	sw.Port(1).Peer().Kick(eng.Now())
	eng.Run()
	if hosts[2].n != 1 {
		t.Fatal("rule removal did not restore base route")
	}
}

func TestMirrorReplicates(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.EnableMirror(5, nil)
	pkt := tcpPkt(eng, 1, 2, 1000)
	inject(eng, qs, 1, pkt, hosts)
	sw.Port(1).Peer().Kick(0)
	eng.Run()
	if hosts[2].n != 1 {
		t.Fatalf("original not delivered: %d", hosts[2].n)
	}
	if hosts[5].n != 1 {
		t.Fatalf("mirror copy not delivered: %d", hosts[5].n)
	}
	if sw.MirrorQueued.Packets != 1 {
		t.Fatalf("mirror queued %d", sw.MirrorQueued.Packets)
	}
}

func TestMirrorSelectivePorts(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(mac(3), 3)
	sw.EnableMirror(5, []int{2}) // only traffic to port 2 mirrored
	p1 := tcpPkt(eng, 1, 2, 100)
	p2 := tcpPkt(eng, 1, 3, 100)
	qs[1].Enqueue(p1)
	qs[1].Enqueue(p2)
	sw.Port(1).Peer().Kick(0)
	eng.Run()
	if hosts[5].n != 1 {
		t.Fatalf("mirror got %d, want 1", hosts[5].n)
	}
	_ = hosts
}

// TestMirrorOversubscriptionDrops: two saturated inputs to distinct
// outputs mirror to one port; the monitor queue must cap at the mirror
// allocation and drop ~half of the copies while data traffic is unharmed.
func TestMirrorOversubscriptionDrops(t *testing.T) {
	cfg := smallConfig()
	cfg.MirrorBufferBytes = 64 << 10
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(mac(3), 3)
	sw.EnableMirror(5, nil)
	const n = 2000
	for i := 0; i < n; i++ {
		qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))
		qs[1].Enqueue(tcpPkt(eng, 1, 3, 1460))
	}
	sw.Port(0).Peer().Kick(0)
	sw.Port(1).Peer().Kick(0)
	eng.Run()
	if hosts[2].n != n || hosts[3].n != n {
		t.Fatalf("data loss: %d/%d", hosts[2].n, hosts[3].n)
	}
	if sw.DataDropped.Packets != 0 {
		t.Fatalf("data drops %d", sw.DataDropped.Packets)
	}
	total := sw.MirrorQueued.Packets + sw.MirrorDropped.Packets
	if total != 2*n {
		t.Fatalf("mirror accounting: %d", total)
	}
	frac := float64(sw.MirrorQueued.Packets) / float64(total)
	if frac < 0.4 || frac > 0.65 {
		t.Fatalf("sampled fraction %.2f, want ~0.5", frac)
	}
	if hosts[5].n != int(sw.MirrorQueued.Packets) {
		t.Fatalf("monitor received %d of %d queued", hosts[5].n, sw.MirrorQueued.Packets)
	}
}

// TestDTDropsWhenOversubscribed: two inputs at line rate to one output
// must drop roughly half once the DT threshold is reached, and the queue
// must settle near alpha/(1+alpha) * pool.
func TestDTDropsWhenOversubscribed(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	const n = 6000 // ~9 MB offered from each input
	for i := 0; i < n; i++ {
		qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))
		qs[1].Enqueue(tcpPkt(eng, 1, 2, 1460))
	}
	var maxQ int64
	tick := sim.NewTicker(eng, 10*units.Microsecond, func(now units.Time) {
		if q := sw.queues[2].bytes; q > maxQ {
			maxQ = q
		}
	})
	sw.Port(0).Peer().Kick(0)
	sw.Port(1).Peer().Kick(0)
	eng.RunUntil(units.Time(5 * units.Millisecond))
	tick.Stop()
	eng.Run()

	if sw.DataDropped.Packets == 0 {
		t.Fatal("no drops despite 2:1 oversubscription")
	}
	// DT fixed point: q = alpha*(B - q) -> q = B*alpha/(1+alpha) = 4 MB.
	want := int64(float64(cfg.SharedBufferBytes) * cfg.DTAlpha / (1 + cfg.DTAlpha))
	if maxQ < want*8/10 || maxQ > want*11/10+int64(cfg.PerPortReserveBytes) {
		t.Fatalf("max queue %d, want ≈%d", maxQ, want)
	}
	if hosts[2].n+int(sw.DataDropped.Packets) != 2*n {
		t.Fatalf("conservation: %d delivered + %d dropped != %d",
			hosts[2].n, sw.DataDropped.Packets, 2*n)
	}
}

// TestSharedPoolNeverExceeded is the buffer-accounting invariant.
func TestSharedPoolNeverExceeded(t *testing.T) {
	cfg := smallConfig()
	cfg.SharedBufferBytes = 256 << 10
	cfg.MirrorBufferBytes = 128 << 10
	eng, sw, _, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(mac(3), 3)
	sw.EnableMirror(5, nil)
	for i := 0; i < 3000; i++ {
		qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))
		qs[1].Enqueue(tcpPkt(eng, 1, 2, 1460))
		qs[4].Enqueue(tcpPkt(eng, 4, 3, 1460))
	}
	stop := false
	sim.NewTicker(eng, units.Microsecond, func(now units.Time) {
		if sw.sharedUsed > cfg.SharedBufferBytes && !stop {
			stop = true
			t.Errorf("shared pool exceeded: %d > %d", sw.sharedUsed, cfg.SharedBufferBytes)
		}
	})
	sw.Port(0).Peer().Kick(0)
	sw.Port(1).Peer().Kick(0)
	sw.Port(4).Peer().Kick(0)
	eng.RunUntil(units.Time(3 * units.Millisecond))
	if sw.sharedUsed < 0 {
		t.Fatalf("negative shared usage %d", sw.sharedUsed)
	}
}

func TestIngressCounters(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.SetEdgePort(1, true)
	for i := 0; i < 5; i++ {
		qs[1].Enqueue(tcpPkt(eng, 1, 2, 1000))
	}
	sw.Port(1).Peer().Kick(0)
	eng.Run()
	key := packet.FlowKey{SrcIP: ip(1), DstIP: ip(2), SrcPort: 1000, DstPort: 2000, Proto: packet.IPProtocolTCP}
	c := sw.ingressCounters[key]
	if c == nil || c.Packets != 5 {
		t.Fatalf("ingress counter %+v", c)
	}
	_ = hosts
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NumPorts: 0, LineRate: units.Rate10G, SharedBufferBytes: 1, DTAlpha: 1},
		{NumPorts: 4, LineRate: 0, SharedBufferBytes: 1, DTAlpha: 1},
		{NumPorts: 4, LineRate: units.Rate10G, SharedBufferBytes: 0, DTAlpha: 1},
		{NumPorts: 4, LineRate: units.Rate10G, SharedBufferBytes: 1, DTAlpha: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated", i)
		}
	}
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}
