package switchsim

import (
	"testing"
)

// TestMirrorPerPortCountersAttribute: under the same 2:1 oversubscribed
// mirror load as TestMirrorOversubscriptionDrops, the per-port mirror
// counters must (a) sum exactly to the aggregate counters and (b)
// attribute every offered copy to the output port whose traffic caused
// it — the breakdown the governor's estimator polls.
func TestMirrorPerPortCountersAttribute(t *testing.T) {
	cfg := smallConfig()
	cfg.MirrorBufferBytes = 64 << 10
	eng, sw, _, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(mac(3), 3)
	sw.EnableMirror(5, nil)
	// Asymmetric payloads keep the two streams from phase-locking on the
	// admission test, so both mirrored ports see queue and drop activity.
	const n = 2000
	for i := 0; i < n; i++ {
		qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))
		qs[1].Enqueue(tcpPkt(eng, 1, 3, 733))
	}
	sw.Port(0).Peer().Kick(0)
	sw.Port(1).Peer().Kick(0)
	eng.Run()

	var sumQ, sumD int64
	for p := 0; p < cfg.NumPorts; p++ {
		q, d := sw.MirrorPortCounters(p)
		sumQ += q.Packets
		sumD += d.Packets
		if p != 2 && p != 3 && q.Packets+d.Packets != 0 {
			t.Fatalf("port %d has mirror accounting (%d queued, %d dropped) but carried no mirrored traffic",
				p, q.Packets, d.Packets)
		}
	}
	if sumQ != sw.MirrorQueued.Packets || sumD != sw.MirrorDropped.Packets {
		t.Fatalf("per-port sums (%d, %d) != aggregates (%d, %d)",
			sumQ, sumD, sw.MirrorQueued.Packets, sw.MirrorDropped.Packets)
	}
	for _, p := range []int{2, 3} {
		q, d := sw.MirrorPortCounters(p)
		if q.Packets+d.Packets != n {
			t.Fatalf("port %d offered accounting %d+%d, want %d", p, q.Packets, d.Packets, n)
		}
		if q.Packets == 0 || d.Packets == 0 {
			t.Fatalf("port %d not oversubscribed: %d queued, %d dropped", p, q.Packets, d.Packets)
		}
	}
	// Out-of-range queries are safe zeros.
	if q, d := sw.MirrorPortCounters(-1); q.Packets != 0 || d.Packets != 0 {
		t.Fatal("out-of-range counters not zero")
	}
}

// TestSetPortMirroredRuntime: shedding one port mid-run must freeze its
// replication (counters stop, the other port's continue) and restoring
// it must resume replication — without touching construction-time
// config or the data path.
func TestSetPortMirroredRuntime(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(mac(3), 3)
	sw.EnableMirror(5, nil)

	run := func(n int) {
		for i := 0; i < n; i++ {
			qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))
			qs[1].Enqueue(tcpPkt(eng, 1, 3, 1460))
		}
		sw.Port(0).Peer().Kick(eng.Now())
		sw.Port(1).Peer().Kick(eng.Now())
		eng.Run()
	}
	offered := func(p int) int64 {
		q, d := sw.MirrorPortCounters(p)
		return q.Packets + d.Packets
	}

	const n = 200
	run(n)
	if offered(2) != n || offered(3) != n {
		t.Fatalf("phase 1 accounting: port2=%d port3=%d, want %d", offered(2), offered(3), n)
	}

	// Shed port 2: its copies stop, port 3 is untouched.
	sw.SetPortMirrored(2, false)
	if sw.PortMirrored(2) || !sw.PortMirrored(3) {
		t.Fatal("shed state wrong")
	}
	run(n)
	if offered(2) != n {
		t.Fatalf("shed port still replicating: %d", offered(2))
	}
	if offered(3) != 2*n {
		t.Fatalf("surviving port perturbed: %d, want %d", offered(3), 2*n)
	}

	// Restore port 2: replication resumes.
	sw.SetPortMirrored(2, true)
	run(n)
	if offered(2) != 2*n || offered(3) != 3*n {
		t.Fatalf("restore accounting: port2=%d port3=%d", offered(2), offered(3))
	}

	// The data path never flinched.
	if hosts[2].n != 3*n || hosts[3].n != 3*n || sw.DataDropped.Packets != 0 {
		t.Fatalf("data path perturbed: %d/%d drops=%d", hosts[2].n, hosts[3].n, sw.DataDropped.Packets)
	}

	// Guard rails: the monitor port can never join the mirrored set, and
	// out-of-range ports are ignored.
	sw.SetPortMirrored(5, true)
	if sw.PortMirrored(5) {
		t.Fatal("monitor port joined the mirrored set")
	}
	sw.SetPortMirrored(-1, true)
	sw.SetPortMirrored(99, true)
}

// TestSetPortMirrorRate: a per-port "rate of samples" bucket must thin
// that port's copies to roughly the installed rate while leaving other
// ports' replication and all data traffic untouched.
func TestSetPortMirrorRate(t *testing.T) {
	cfg := smallConfig()
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(mac(3), 3)
	sw.EnableMirror(5, nil)
	sw.SetPortMirrorRate(0, 2, cfg.LineRate/4)
	if sw.PortMirrorRate(2) != cfg.LineRate/4 || sw.PortMirrorRate(3) != 0 {
		t.Fatal("rate install wrong")
	}

	const n = 2000
	for i := 0; i < n; i++ {
		qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))
		qs[1].Enqueue(tcpPkt(eng, 1, 3, 1460))
	}
	sw.Port(0).Peer().Kick(0)
	sw.Port(1).Peer().Kick(0)
	eng.Run()

	q2, d2 := sw.MirrorPortCounters(2)
	q3, d3 := sw.MirrorPortCounters(3)
	th2 := sw.mirrorThinnedBy[2]
	// Bucket discards are intentional thinning, not sampling drops: they
	// land in the thinned counter, never in the dropped one.
	if d2.Packets != 0 {
		t.Fatalf("thinning accounted as sampling drops: %d", d2.Packets)
	}
	if q2.Packets+th2.Packets != n || q3.Packets+d3.Packets != n {
		t.Fatalf("offered accounting: port2=%d port3=%d", q2.Packets+th2.Packets, q3.Packets+d3.Packets)
	}
	if sw.MirrorThinned.Packets != th2.Packets {
		t.Fatalf("aggregate thinned %d != per-port %d", sw.MirrorThinned.Packets, th2.Packets)
	}
	// Port 2's copies arrive at line rate but its bucket refills at a
	// quarter of it, so ~1/4 are admitted (plus a small initial burst).
	frac := float64(q2.Packets) / float64(n)
	if frac < 0.18 || frac > 0.33 {
		t.Fatalf("tuned port admitted fraction %.3f, want ~0.25", frac)
	}
	// Port 3 has no override and the 4 MB mirror buffer absorbs its
	// copies: all admitted.
	if q3.Packets != n || d3.Packets != 0 {
		t.Fatalf("untuned port perturbed: %d queued, %d dropped", q3.Packets, d3.Packets)
	}
	if hosts[2].n != n || hosts[3].n != n || sw.DataDropped.Packets != 0 {
		t.Fatal("data path perturbed by mirror tuning")
	}

	// Clearing the override restores unthinned replication.
	sw.SetPortMirrorRate(eng.Now(), 2, 0)
	for i := 0; i < 100; i++ {
		qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))
	}
	sw.Port(0).Peer().Kick(eng.Now())
	eng.Run()
	q2b, _ := sw.MirrorPortCounters(2)
	if q2b.Packets-q2.Packets != 100 || sw.mirrorThinnedBy[2].Packets != th2.Packets {
		t.Fatalf("cleared override still thinning: +%d queued, thinned %d -> %d",
			q2b.Packets-q2.Packets, th2.Packets, sw.mirrorThinnedBy[2].Packets)
	}
}
