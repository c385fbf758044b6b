package core

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"planck/internal/packet"
	"planck/internal/pcap"
	"planck/internal/units"
)

var (
	macA = packet.MAC{0x02, 0, 0, 0, 0, 1}
	macB = packet.MAC{0x02, 0, 0, 0, 0, 2}
	ipA  = packet.IPv4{10, 0, 0, 1}
	ipB  = packet.IPv4{10, 0, 0, 2}
)

const us = units.Microsecond

// --- RateEstimator ---

// steadyStream feeds a constant-rate sequence stream: one sample every
// interval carrying seq advancing by bytesPer.
func steadyStream(e *RateEstimator, start units.Time, n int, interval units.Duration, bytesPer uint32) units.Time {
	t := start
	var seq uint32
	for i := 0; i < n; i++ {
		e.Observe(t, seq)
		seq += bytesPer
		t = t.Add(interval)
	}
	return t
}

func TestEstimatorSteadyState(t *testing.T) {
	e := NewRateEstimator()
	// 1460B per 1.23µs ≈ 9.5 Gbps, sampled every packet.
	steadyStream(e, 0, 3000, units.Duration(1230), 1460)
	r, _, ok := e.Rate()
	if !ok {
		t.Fatal("no estimate")
	}
	g := r.Gigabits()
	if g < 9.0 || g < 0 || g > 10.0 {
		t.Fatalf("rate %.2f Gbps", g)
	}
}

func TestEstimatorSubsampledStreamIsExact(t *testing.T) {
	// The paper's key insight: the estimate is independent of the
	// sampling rate because sequence numbers carry the byte count. Feed
	// 1-in-16 samples of the same stream.
	e := NewRateEstimator()
	t0 := units.Time(0)
	var seq uint32
	for i := 0; i < 3000; i++ {
		if i%16 == 0 {
			e.Observe(t0, seq)
		}
		seq += 1460
		t0 = t0.Add(units.Duration(1230))
	}
	r, _, ok := e.Rate()
	if !ok {
		t.Fatal("no estimate")
	}
	if g := r.Gigabits(); g < 9.0 || g > 10.0 {
		t.Fatalf("subsampled rate %.2f Gbps", g)
	}
}

func TestEstimatorBurstGapAveragesOverCycle(t *testing.T) {
	// Slow-start-like pattern: bursts of 10 packets at line rate, then
	// ~200µs idle. The per-cycle average (not the in-burst line rate) is
	// what the estimator should report: 10*1460B per ~212µs ≈ 550 Mbps.
	e := NewRateEstimator()
	var seq uint32
	t0 := units.Time(0)
	var got []float64
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < 10; i++ {
			if e.Observe(t0, seq) {
				r, _, _ := e.Rate()
				got = append(got, r.Gigabits())
			}
			seq += 1460
			t0 = t0.Add(units.Duration(1230))
		}
		t0 = t0.Add(200 * us)
	}
	if len(got) < 10 {
		t.Fatalf("only %d estimates", len(got))
	}
	for _, g := range got[2:] {
		if g < 0.3 || g > 0.8 {
			t.Fatalf("burst-cycle estimate %.3f Gbps, want ≈0.55", g)
		}
	}
}

func TestEstimatorIgnoresOutOfOrder(t *testing.T) {
	e := NewRateEstimator()
	e.Observe(0, 10000)
	e.Observe(100, 20000)
	e.Observe(200, 15000) // regression: retransmit or reorder
	if e.OOO != 1 {
		t.Fatalf("OOO = %d", e.OOO)
	}
	if e.StreamBytes() != 10000 {
		t.Fatalf("stream bytes %d", e.StreamBytes())
	}
}

func TestEstimatorSeqWrap(t *testing.T) {
	e := NewRateEstimator()
	start := uint32(0xffff_fc00)
	var t0 units.Time
	for i := 0; i < 2000; i++ {
		e.Observe(t0, start+uint32(i*1460))
		t0 = t0.Add(units.Duration(1230))
	}
	if e.OOO != 0 {
		t.Fatalf("wrap misread as reordering: OOO=%d", e.OOO)
	}
	r, _, _ := e.Rate()
	if g := r.Gigabits(); g < 9.0 || g > 10.0 {
		t.Fatalf("rate across wrap %.2f", g)
	}
}

// Property: estimates are never negative and StreamBytes is monotone.
func TestEstimatorInvariants(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewRateEstimator()
		var t0 units.Time
		var prevStream int64
		for i := 0; i < int(steps); i++ {
			t0 = t0.Add(units.Duration(rng.Int63n(int64(400 * us))))
			e.Observe(t0, rng.Uint32())
			if e.StreamBytes() < prevStream {
				return false
			}
			prevStream = e.StreamBytes()
			if r, _, ok := e.Rate(); ok && r < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- Collector ---

// staticMapper is a label table under one routing epoch that never
// moves: a resolver whose answer depends on the label alone.
type staticMapper map[uint64]int

// staticEpoch is every staticMapper's epoch counter; nothing stores to it.
var staticEpoch atomic.Uint64

func (m staticMapper) port(dst packet.MAC) (int, bool) {
	p, ok := m[dst.U64()]
	return p, ok
}
func (m staticMapper) Refresh() uint64 { return 0 }
func (m staticMapper) ResolveOutput(_ units.Time, _ packet.FlowKey, dst packet.MAC) (int, uint64, bool) {
	p, ok := m.port(dst)
	return p, 0, ok
}
func (m staticMapper) EpochRef() *atomic.Uint64 { return &staticEpoch }

func tcpFrame(seq uint32, payload int) []byte {
	return packet.BuildTCP(nil, packet.TCPSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ipA, DstIP: ipB,
		SrcPort: 1000, DstPort: 2000,
		Seq: seq, Flags: packet.TCPAck, PayloadLen: payload,
	})
}

func newTestCollector() *Collector {
	c := New(Config{
		SwitchName: "sw0",
		NumPorts:   4,
		LinkRate:   units.Rate10G,
	})
	c.SetPortMapper(staticMapper{macB.U64(): 2})
	return c
}

func TestCollectorFlowTracking(t *testing.T) {
	c := newTestCollector()
	var t0 units.Time
	var seq uint32
	for i := 0; i < 2000; i++ {
		if err := c.Ingest(t0, tcpFrame(seq, 1460)); err != nil {
			t.Fatal(err)
		}
		seq += 1460
		t0 = t0.Add(units.Duration(1230))
	}
	key := packet.FlowKey{SrcIP: ipA, DstIP: ipB, SrcPort: 1000, DstPort: 2000, Proto: packet.IPProtocolTCP}
	r, ok := c.FlowRate(key)
	if !ok {
		t.Fatal("flow not tracked")
	}
	if g := r.Gigabits(); g < 9.0 || g > 10.0 {
		t.Fatalf("flow rate %.2f", g)
	}
	f := c.Flow(key)
	if f == nil || f.OutPort() != 2 {
		t.Fatalf("flow port %v", f)
	}
	if util := c.LinkUtilization(2); util != r {
		t.Fatalf("util %v != flow rate %v", util, r)
	}
	if got := c.FlowsOnPort(2); len(got) != 1 || got[0].Key != key {
		t.Fatalf("flows on port: %+v", got)
	}
	st := c.Stats()
	if st.Samples != 2000 || st.Flows != 1 || st.RateUpdates == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCollectorCongestionEvent(t *testing.T) {
	c := newTestCollector()
	var events []CongestionEvent
	c.Subscribe(func(ev CongestionEvent) {
		ev.Flows = slices.Clone(ev.Flows)
		events = append(events, ev)
	})
	var t0 units.Time
	var seq uint32
	for i := 0; i < 3000; i++ {
		c.Ingest(t0, tcpFrame(seq, 1460))
		seq += 1460
		t0 = t0.Add(units.Duration(1230)) // 9.5 Gbps > 90% of 10G
	}
	if len(events) == 0 {
		t.Fatal("no congestion events for a 9.5 Gbps link")
	}
	ev := events[0]
	if ev.Port != 2 || ev.SwitchName != "sw0" {
		t.Fatalf("event %+v", ev)
	}
	if len(ev.Flows) != 1 || ev.Flows[0].Rate.Gigabits() < 8.5 {
		t.Fatalf("event flows %+v", ev.Flows)
	}
	// Cooldown: events must be spaced >= EventCooldown (250 µs default).
	for i := 1; i < len(events); i++ {
		if d := events[i].Time.Sub(events[i-1].Time); d < 250*units.Microsecond {
			t.Fatalf("events %d apart", d)
		}
	}
}

func TestCollectorNoEventBelowThreshold(t *testing.T) {
	c := newTestCollector()
	fired := false
	c.Subscribe(func(ev CongestionEvent) { fired = true })
	var t0 units.Time
	var seq uint32
	for i := 0; i < 3000; i++ {
		c.Ingest(t0, tcpFrame(seq, 1460))
		seq += 1460
		t0 = t0.Add(units.Duration(4000)) // ≈2.9 Gbps
	}
	if fired {
		t.Fatal("event fired below threshold")
	}
}

func TestCollectorRerouteRemapsFlow(t *testing.T) {
	c := New(Config{SwitchName: "sw0", NumPorts: 4, LinkRate: units.Rate10G})
	shadow := packet.MAC{0x02, 1, 0, 0, 0, 2}
	c.SetPortMapper(staticMapper{macB.U64(): 2, shadow.U64(): 3})
	var t0 units.Time
	var seq uint32
	mk := func(dst packet.MAC) []byte {
		return packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: dst, SrcIP: ipA, DstIP: ipB,
			SrcPort: 1000, DstPort: 2000, Seq: seq, Flags: packet.TCPAck, PayloadLen: 1460,
		})
	}
	for i := 0; i < 1000; i++ {
		c.Ingest(t0, mk(macB))
		seq += 1460
		t0 = t0.Add(units.Duration(1230))
	}
	key := packet.FlowKey{SrcIP: ipA, DstIP: ipB, SrcPort: 1000, DstPort: 2000, Proto: packet.IPProtocolTCP}
	if f := c.Flow(key); f.OutPort() != 2 {
		t.Fatalf("pre-reroute port %d", f.OutPort())
	}
	// Reroute: same 5-tuple, new dst MAC label.
	for i := 0; i < 1000; i++ {
		c.Ingest(t0, mk(shadow))
		seq += 1460
		t0 = t0.Add(units.Duration(1230))
	}
	f := c.Flow(key)
	if f.OutPort() != 3 {
		t.Fatalf("post-reroute port %d", f.OutPort())
	}
	if f.DstMAC != shadow {
		t.Fatalf("dst mac %v", f.DstMAC)
	}
	// Rate estimation must survive the label change (sequence stream is
	// continuous).
	if r, ok := f.Rate(); !ok || r.Gigabits() < 9.0 {
		t.Fatalf("rate lost across reroute: %v %v", r, ok)
	}
	if c.LinkUtilization(2) != 0 {
		// Old port may still show the flow if it was not remapped.
		t.Fatalf("old port still has utilization %v", c.LinkUtilization(2))
	}
}

func TestCollectorExpireFlows(t *testing.T) {
	c := newTestCollector()
	c.Ingest(0, tcpFrame(0, 1460))
	if n := c.ExpireFlows(units.Time(100*units.Millisecond), 10*units.Millisecond); n != 1 {
		t.Fatalf("expired %d", n)
	}
	if c.Stats().Flows != 0 {
		t.Fatal("flow table not empty")
	}
}

func TestCollectorTimestampRegressionRejected(t *testing.T) {
	c := newTestCollector()
	c.Ingest(1000, tcpFrame(0, 100))
	if err := c.Ingest(500, tcpFrame(1460, 100)); err == nil {
		t.Fatal("backwards timestamp accepted")
	}
}

func TestCollectorNonTCPCounted(t *testing.T) {
	c := newTestCollector()
	arp := packet.BuildARP(nil, packet.ARPSpec{
		SrcMAC: macA, DstMAC: macB, Op: packet.ARPRequest,
		SenderMAC: macA, SenderIP: ipA, TargetIP: ipB,
	})
	udp := packet.BuildUDP(nil, packet.UDPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1, DstPort: 2, PayloadLen: 64,
	})
	c.Ingest(0, arp)
	c.Ingest(1, udp)
	st := c.Stats()
	if st.NonTCP != 2 || st.DecodeErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestVantageRingPcapRoundTrip(t *testing.T) {
	c := New(Config{SwitchName: "sw0", NumPorts: 4, LinkRate: units.Rate10G, RingPackets: 128})
	c.SetPortMapper(staticMapper{macB.U64(): 2})
	var t0 units.Time
	var seq uint32
	const total = 300 // more than the ring, to force wrap
	for i := 0; i < total; i++ {
		c.Ingest(t0, tcpFrame(seq, 100))
		seq += 100
		t0 = t0.Add(10 * us)
	}
	var buf bytes.Buffer
	if err := c.DumpPcap(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var count int
	var firstSeq uint32
	var dec packet.Decoded
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(rec.Data); err != nil {
			t.Fatal(err)
		}
		if count == 0 {
			firstSeq = dec.TCP.Seq
		}
		count++
	}
	if count != 128 {
		t.Fatalf("dumped %d records", count)
	}
	// Ring keeps the newest 128: the first dumped sample is #172.
	if firstSeq != uint32((total-128)*100) {
		t.Fatalf("first seq %d", firstSeq)
	}
}

// The allocation pins count one run over a loop, not the mean of many
// runs: AllocsPerRun rounds its mean down, so a pin over N runs would
// pass up to N-1 allocations.

func TestRingNoAllocSteadyState(t *testing.T) {
	r := NewRing(64)
	frame := make([]byte, 1500)
	if allocs := testing.AllocsPerRun(1, func() {
		for range 1000 {
			r.Push(0, frame)
		}
	}); allocs != 0 {
		t.Fatalf("ring Push allocates %.0f times in 1000 pushes", allocs)
	}
}

func TestIngestNoAllocSteadyState(t *testing.T) {
	c := newTestCollector()
	frame := tcpFrame(0, 1460)
	var t0 units.Time
	var seq uint32
	// Warm up the flow table.
	c.Ingest(t0, frame)
	allocs := testing.AllocsPerRun(1, func() {
		for range 5000 {
			t0 = t0.Add(units.Duration(1230))
			seq += 1460
			// Rebuild in place: BuildTCP reuses the buffer.
			frame = packet.BuildTCP(frame, packet.TCPSpec{
				SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
				SrcPort: 1000, DstPort: 2000, Seq: seq, Flags: packet.TCPAck, PayloadLen: 1460,
			})
			if err := c.Ingest(t0, frame); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Ingest allocates %.0f times in 5000 samples", allocs)
	}
}

// TestRestoreCooldowns seeds a restarted collector's per-port cooldowns
// from the event times its predecessor fired at.
func TestRestoreCooldowns(t *testing.T) {
	ms := func(n int64) units.Time { return units.Time(n) * units.Time(units.Millisecond) }
	c := New(Config{SwitchName: "sw", NumPorts: 4, LinkRate: units.Rate1G})
	c.lastEvent[1] = ms(60)
	c.lastEvent[2] = ms(10) // earlier than the restored time: restore must win
	c.RestoreCooldowns(map[int]units.Time{2: ms(50)})
	if c.lastEvent[2] != ms(50) {
		t.Errorf("restore should take the later time: got %v", c.lastEvent[2])
	}
	if c.lastEvent[1] != ms(60) {
		t.Errorf("restore must not regress unrelated ports: got %v", c.lastEvent[1])
	}
	// Out-of-range ports are ignored, not a panic.
	before := slices.Clone(c.lastEvent)
	c.RestoreCooldowns(map[int]units.Time{-1: ms(1), 99: ms(1)})
	if !slices.Equal(c.lastEvent, before) {
		t.Errorf("out-of-range restore changed cooldowns: %v, was %v", c.lastEvent, before)
	}
}
