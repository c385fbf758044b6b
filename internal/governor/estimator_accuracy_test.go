// Estimator accuracy against analytic ground truth: drive a real
// switchsim mirror tap at known offered loads across saturation regimes
// and check RateEstimator's effective-rate estimates against both the
// analytic expectation (monitor capacity / offered rate) and the exact
// truth derived from the switch's own counters.
package governor_test

import (
	"math"
	"testing"

	"planck/internal/governor"
	"planck/internal/packet"
	"planck/internal/sim"
	"planck/internal/switchsim"
	"planck/internal/units"
)

// sinkNode terminates links, counting arrivals.
type sinkNode struct {
	eng *sim.Engine
	n   int
}

func (s *sinkNode) Name() string { return "sink" }
func (s *sinkNode) Receive(_ units.Time, _ *sim.Port, pkt *sim.Packet) {
	s.n++
	s.eng.FreePacket(pkt)
}

func accMAC(i int) packet.MAC { return packet.MAC{0x02, 0, 0, 0, 0, byte(i)} }
func accIP(i int) packet.IPv4 { return packet.IPv4{10, 0, 0, byte(i)} }

// estRig is a switch with k saturated input streams, each to its own
// mirrored output, all replicating to one monitor port, plus a
// RateEstimator polled from a ticker like the governor polls it.
type estRig struct {
	eng     *sim.Engine
	sw      *switchsim.Switch
	est     *governor.RateEstimator
	queues  []*sim.Fifo
	monitor int
	outs    []int
}

const (
	accPorts   = 10
	accMonitor = 9
	accPayload = 1460
)

// buildEstRig wires the topology for k input→output pairs.
func buildEstRig(t *testing.T, k int, mirrorBuf int64) *estRig {
	t.Helper()
	eng := sim.New()
	sw, err := switchsim.New(eng, switchsim.Config{
		Name:                "est",
		NumPorts:            accPorts,
		LineRate:            units.Rate10G,
		SharedBufferBytes:   9 << 20,
		PerPortReserveBytes: 20 << 10,
		DTAlpha:             0.8,
		MirrorBufferBytes:   mirrorBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &estRig{eng: eng, sw: sw, monitor: accMonitor}
	r.queues = make([]*sim.Fifo, accPorts)
	for i := 0; i < accPorts; i++ {
		sink := &sinkNode{eng: eng}
		p := sim.NewPort(eng, sink, 0, units.Rate10G)
		r.queues[i] = &sim.Fifo{}
		p.SetSource(r.queues[i])
		sim.Connect(p, sw.Port(i), 100*units.Nanosecond)
	}
	outs := []int{}
	for i := 0; i < k; i++ {
		out := 4 + i
		sw.InstallMAC(accMAC(out), out)
		outs = append(outs, out)
	}
	r.outs = outs
	sw.EnableMirror(accMonitor, outs)
	r.est = governor.NewRateEstimator(accPorts)
	return r
}

// offer loads n packets per input stream and runs the sim with the
// estimator polled every pollEvery, returning the end-of-run time.
func (r *estRig) offer(n int, pollEvery units.Duration) units.Time {
	for i, out := range r.outs {
		for j := 0; j < n; j++ {
			pkt := r.eng.NewPacket()
			pkt.Kind = sim.KindTCP
			pkt.SrcMAC, pkt.DstMAC = accMAC(i), accMAC(out)
			pkt.SrcIP, pkt.DstIP = accIP(i), accIP(out)
			pkt.SrcPort, pkt.DstPort = 1000, 2000
			// Jitter the size so the streams cannot phase-lock on the
			// monitor queue's admission test, which would otherwise give
			// one stream all the admissions and another all the drops.
			pkt.PayloadLen = accPayload - (i*127+j*251)%512
			pkt.WireLen = pkt.PayloadLen + sim.TCPHeaderBytes
			r.queues[i].Enqueue(pkt)
		}
	}
	// Baseline the counters before any traffic lands.
	for p := 0; p < accPorts; p++ {
		q, d := r.sw.MirrorPortCounters(p)
		r.est.RecordMirrorCounters(0, p, q, d)
	}
	tick := sim.NewTicker(r.eng, pollEvery, func(now units.Time) {
		for p := 0; p < accPorts; p++ {
			q, d := r.sw.MirrorPortCounters(p)
			r.est.RecordMirrorCounters(now, p, q, d)
		}
	})
	for i := range r.outs {
		r.sw.Port(i).Peer().Kick(0)
	}
	// Serializing n full frames at 10G takes ~1.23 µs each; run with the
	// poller live well past that, then drain without it.
	deadline := units.Time(units.Duration(n) * 2 * units.Microsecond)
	r.eng.RunUntil(deadline)
	tick.Stop()
	r.eng.Run()
	return r.eng.Now()
}

// TestEstimatorAccuracyRegimes sweeps three saturation regimes — 1:1
// (undersubscribed), 2:1, and 4:1 oversubscribed — and checks the
// estimator converges on the analytic effective rate C/(k·C) = 1/k and
// on the exact counter-derived truth.
func TestEstimatorAccuracyRegimes(t *testing.T) {
	for _, tc := range []struct {
		k        int
		expected float64
		tol      float64
	}{
		{k: 1, expected: 1.0, tol: 0.02},
		{k: 2, expected: 0.5, tol: 0.12},
		{k: 4, expected: 0.25, tol: 0.12},
	} {
		r := buildEstRig(t, tc.k, 64<<10)
		end := r.offer(2000, 250*units.Microsecond)

		agg := r.est.Aggregate(end)
		if agg.Samples == 0 {
			t.Fatalf("k=%d: no samples backed the estimate", tc.k)
		}
		// Exact truth from the switch's own aggregate counters.
		queued, dropped := r.sw.MirrorQueued.Bytes, r.sw.MirrorDropped.Bytes
		truth := float64(queued) / float64(queued+dropped)
		if math.Abs(agg.Effective-truth) > 0.02 {
			t.Fatalf("k=%d: estimate %.3f diverged from counter truth %.3f",
				tc.k, agg.Effective, truth)
		}
		// Analytic expectation: k saturated streams share one monitor
		// link, so the effective sampling rate is ~1/k.
		if math.Abs(agg.Effective-tc.expected) > tc.tol {
			t.Fatalf("k=%d: estimate %.3f, analytic %.2f ± %.2f",
				tc.k, agg.Effective, tc.expected, tc.tol)
		}
		if agg.Confidence < 0.9 {
			t.Fatalf("k=%d: confidence %.3f with %d samples", tc.k, agg.Confidence, agg.Samples)
		}
		if agg.Offered <= 0 || agg.Admitted <= 0 {
			t.Fatalf("k=%d: degenerate rates %v/%v", tc.k, agg.Offered, agg.Admitted)
		}
		// Per-port estimates agree with the aggregate in symmetric load.
		for _, out := range r.outs {
			pe := r.est.Estimate(end, out)
			if math.Abs(pe.Effective-tc.expected) > tc.tol+0.08 {
				t.Fatalf("k=%d port %d: estimate %.3f, analytic %.2f",
					tc.k, out, pe.Effective, tc.expected)
			}
		}
		// Ports that carried nothing estimate vacuously: effective 1 at
		// zero confidence.
		idle := r.est.Estimate(end, 8)
		if idle.Effective != 1 || idle.Confidence != 0 || idle.Samples != 0 {
			t.Fatalf("k=%d idle port: %+v", tc.k, idle)
		}
		// The window ages out: far past the run nothing remains.
		stale := r.est.Aggregate(end.Add(10 * governor.EstimatorWindow))
		if stale.Samples != 0 || stale.Confidence != 0 {
			t.Fatalf("k=%d: window failed to age out: %+v", tc.k, stale)
		}
	}
}

// TestEstimatorShedTapIsNotSaturation: a shed tap's mirror counters
// stay frozen while its port carries line-rate traffic. The estimator
// reads that as nothing offered to the tap — effective 1 at zero
// confidence, like an idle port — never as saturation: a governor that
// read a shed tap as effective 0 would keep re-planning and never
// restore it.
func TestEstimatorShedTapIsNotSaturation(t *testing.T) {
	r := buildEstRig(t, 1, 64<<10)
	// Shed the tap before any traffic: counters will never move.
	r.sw.SetPortMirrored(4, false)
	end := r.offer(2000, 250*units.Microsecond)

	for name, est := range map[string]governor.Estimate{
		"port":      r.est.Estimate(end, 4),
		"aggregate": r.est.Aggregate(end),
	} {
		if est.Effective != 1 || est.Confidence != 0 || est.Samples != 0 {
			t.Fatalf("shed tap %s estimate %+v, want effective 1 at confidence 0 from 0 samples", name, est)
		}
	}
	if sent := r.sw.Port(4).TxPackets; sent != 2000 {
		t.Fatalf("the shed port forwarded %d packets, want all 2000", sent)
	}
}
