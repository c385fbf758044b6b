package switchsim

import (
	"testing"

	"planck/internal/packet"
	"planck/internal/sim"
	"planck/internal/units"
)

// tcpFlagged builds a TCP packet with specific flags.
func tcpFlagged(eng *sim.Engine, src, dst int, payload int, flags uint8) *sim.Packet {
	p := tcpPkt(eng, src, dst, payload)
	p.TCPFlags = flags
	return p
}

// TestPrioritySamplingSYNsSurviveOversubscription: under a saturated
// mirror, SYN/FIN/RST packets must be sampled preferentially.
func TestPrioritySamplingSYNsSurviveOversubscription(t *testing.T) {
	cfg := smallConfig()
	cfg.MirrorBufferBytes = 64 << 10
	cfg.MirrorPriorityFlags = true
	eng, sw, _, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(mac(3), 3)
	sw.EnableMirror(5, nil)

	// Two saturated inputs (2:1 mirror oversubscription), with a SYN
	// interleaved every 100 packets.
	const n = 4000
	var synsSent int
	for i := 0; i < n; i++ {
		qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))
		if i%100 == 0 {
			qs[1].Enqueue(tcpFlagged(eng, 1, 3, 0, packet.TCPSyn))
			synsSent++
		} else {
			qs[1].Enqueue(tcpPkt(eng, 1, 3, 1460))
		}
	}
	sw.Port(0).Peer().Kick(0)
	sw.Port(1).Peer().Kick(0)
	eng.Run()

	if sw.MirrorPrioQueued.Packets < int64(synsSent)*9/10 {
		t.Fatalf("only %d of %d SYNs sampled via priority", sw.MirrorPrioQueued.Packets, synsSent)
	}
	// Normal sampling must still deliver roughly its fair share.
	frac := float64(sw.MirrorQueued.Packets) / float64(sw.MirrorQueued.Packets+sw.MirrorDropped.Packets)
	if frac < 0.35 {
		t.Fatalf("normal sampling crushed: %.2f", frac)
	}
}

// TestPriorityFractionCapResistsSYNFlood: a flood of flagged packets must
// not suppress normal samples beyond the configured share (§9.2's
// attacker caveat).
func TestPriorityFractionCapResistsSYNFlood(t *testing.T) {
	cfg := smallConfig()
	cfg.MirrorBufferBytes = 256 << 10
	cfg.MirrorPriorityFlags = true
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(mac(3), 3)
	sw.EnableMirror(5, nil)

	const n = 8000
	for i := 0; i < n; i++ {
		qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))                 // victim data
		qs[1].Enqueue(tcpFlagged(eng, 1, 3, 0, packet.TCPSyn)) // SYN flood
	}
	sw.Port(0).Peer().Kick(0)
	sw.Port(1).Peer().Kick(0)
	eng.Run()

	total := float64(hosts[5].n)
	prio := float64(sw.prioServed)
	if total == 0 {
		t.Fatal("monitor received nothing")
	}
	// The flood may take at most ~the configured fraction (plus slack for
	// phases where the normal queue was empty).
	if prio/total > 0.35 {
		t.Fatalf("priority class took %.0f%% of samples", 100*prio/total)
	}
	if int64(total)-sw.prioServed < int64(n)/4 {
		t.Fatalf("normal samples suppressed: %d", int64(total)-sw.prioServed)
	}
}

// TestTargetRateMirroringThinsWithoutBuffering: the §9.2 "rate of
// samples" mode must cap the sample stream near the target with an
// almost-empty monitor queue.
func TestTargetRateMirroringThinsWithoutBuffering(t *testing.T) {
	cfg := smallConfig()
	cfg.MirrorTargetRate = 2 * units.Gbps
	eng, sw, hosts, qs := rig(t, cfg)
	sw.InstallMAC(mac(2), 2)
	sw.InstallMAC(mac(3), 3)
	sw.EnableMirror(5, nil)

	var maxQ int64
	tick := sim.NewTicker(eng, 20*units.Microsecond, func(units.Time) {
		if q := sw.queues[5].bytes; q > maxQ {
			maxQ = q
		}
	})
	const n = 8000 // ~2x10G offered for ~10ms
	for i := 0; i < n; i++ {
		qs[0].Enqueue(tcpPkt(eng, 0, 2, 1460))
		qs[1].Enqueue(tcpPkt(eng, 1, 3, 1460))
	}
	sw.Port(0).Peer().Kick(0)
	sw.Port(1).Peer().Kick(0)
	eng.RunUntil(units.Time(15 * units.Millisecond))
	tick.Stop()
	eng.Run()

	// Sampled volume ≈ target x duration: 2 Gbps for ~10 ms = 2.5 MB.
	sampledBytes := sw.MirrorQueued.Bytes
	if sampledBytes < 2_000_000 || sampledBytes > 3_200_000 {
		t.Fatalf("sampled %d bytes, want ≈2.5MB", sampledBytes)
	}
	// The queue never builds: samples are pre-thinned below line rate.
	if maxQ > 5*1538 {
		t.Fatalf("monitor queue built to %d bytes", maxQ)
	}
	if hosts[5].n == 0 {
		t.Fatal("no samples delivered")
	}
}
