package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"planck/internal/packet"
	"planck/internal/units"
)

// --- equivalence harness ---
//
// Two ways of driving the Collector — per-sample Ingest and batched
// IngestBatch — must compute exactly the same observable state. This
// file replays an adversarial synthetic stream (flow skew, reroutes,
// boundaries, UDP counters, decode garbage, mid-stream expiry and
// mapper swaps) and compares everything a caller can see; the
// lab-level oracle (internal/lab) re-checks it over
// tcpsim/switchsim-generated traffic.

type timedFrame struct {
	t units.Time
	b []byte
}

// mixedStream generates a deterministic adversarial sample stream:
// TCP flows of very different intensities across several egress ports
// (including an unmappable destination), reroute label changes,
// SYN/FIN boundary packets, occasional sequence regressions, UDP flows
// with and without the §3.2.2 payload counter, ARP, and truncated
// garbage.
func mixedStream(seed int64, n int) []timedFrame {
	rng := rand.New(rand.NewSource(seed))
	macC := packet.MAC{0x02, 0, 0, 0, 0, 3}
	macUnmapped := packet.MAC{0x02, 0, 0, 0, 0, 9}
	shadow := packet.MAC{0x02, 1, 0, 0, 0, 2}

	type flow struct {
		src, dst uint16
		mac      packet.MAC
		seq      uint32
		bytesPer uint32
		weight   int
	}
	flows := make([]*flow, 0, 10)
	macs := []packet.MAC{macB, macC, shadow, macUnmapped}
	for i := 0; i < 10; i++ {
		flows = append(flows, &flow{
			src: uint16(1000 + i), dst: 2000,
			mac:      macs[i%len(macs)],
			seq:      rng.Uint32(),
			bytesPer: 1460,
			weight:   1 + rng.Intn(8), // skewed sampling intensity
		})
	}

	var udpSeq uint32
	var t units.Time
	out := make([]timedFrame, 0, n)
	emit := func(b []byte) {
		cp := append([]byte(nil), b...)
		out = append(out, timedFrame{t: t, b: cp})
		t = t.Add(units.Duration(rng.Int63n(int64(3 * units.Microsecond))))
	}

	// Open every flow with a SYN so FlowStart boundaries exist.
	for _, f := range flows {
		emit(packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: f.mac, SrcIP: ipA, DstIP: ipB,
			SrcPort: f.src, DstPort: f.dst, Seq: f.seq, Flags: packet.TCPSyn,
		}))
	}

	for len(out) < n {
		switch r := rng.Intn(100); {
		case r < 72: // weighted TCP data sample
			f := flows[rng.Intn(len(flows))]
			for w := 0; w < f.weight && len(out) < n; w++ {
				seq := f.seq
				if rng.Intn(50) == 0 {
					seq -= 3 * f.bytesPer // retransmission: sequence regression
				} else {
					f.seq += f.bytesPer
				}
				emit(packet.BuildTCP(nil, packet.TCPSpec{
					SrcMAC: macA, DstMAC: f.mac, SrcIP: ipA, DstIP: ipB,
					SrcPort: f.src, DstPort: f.dst, Seq: seq,
					Flags: packet.TCPAck, PayloadLen: int(f.bytesPer),
				}))
			}
		case r < 78: // reroute: same 5-tuple, new routing label
			f := flows[rng.Intn(len(flows))]
			f.mac = macs[rng.Intn(len(macs))]
		case r < 82: // FIN, then reopen with a SYN later
			f := flows[rng.Intn(len(flows))]
			emit(packet.BuildTCP(nil, packet.TCPSpec{
				SrcMAC: macA, DstMAC: f.mac, SrcIP: ipA, DstIP: ipB,
				SrcPort: f.src, DstPort: f.dst, Seq: f.seq,
				Flags: packet.TCPFin | packet.TCPAck,
			}))
		case r < 88: // UDP with the §3.2.2 payload counter
			udpSeq++
			emit(packet.BuildUDP(nil, packet.UDPSpec{
				SrcMAC: macA, DstMAC: macC, SrcIP: ipA, DstIP: ipB,
				SrcPort: 4000, DstPort: 4001, PayloadLen: 400,
				Seq: udpSeq, HasSeq: true,
			}))
		case r < 92: // UDP too short to carry the counter
			emit(packet.BuildUDP(nil, packet.UDPSpec{
				SrcMAC: macA, DstMAC: macC, SrcIP: ipA, DstIP: ipB,
				SrcPort: 4000, DstPort: 4002, PayloadLen: 2,
			}))
		case r < 96: // ARP
			emit(packet.BuildARP(nil, packet.ARPSpec{
				SrcMAC: macA, DstMAC: macB, Op: packet.ARPRequest,
				SenderMAC: macA, SenderIP: ipA, TargetIP: ipB,
			}))
		default: // truncated garbage: decode must fail, never panic
			full := packet.BuildTCP(nil, packet.TCPSpec{
				SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
				SrcPort: 9, DstPort: 9, PayloadLen: 64,
			})
			emit(full[:rng.Intn(len(full))])
		}
	}
	return out[:n]
}

type boundaryRec struct {
	t    units.Time
	key  packet.FlowKey
	kind BoundaryKind
}

// runResult captures everything observable from one collector run.
type runResult struct {
	stats  Stats
	utils  []units.Rate
	rates  map[packet.FlowKey]units.Rate
	events []CongestionEvent
	bounds []boundaryRec
}

func keyString(k packet.FlowKey) string { return fmt.Sprintf("%+v", k) }

func normalizeEvents(evs []CongestionEvent) {
	for i := range evs {
		fl := evs[i].Flows
		sort.Slice(fl, func(a, b int) bool { return keyString(fl[a].Key) < keyString(fl[b].Key) })
	}
}

// equivCollector abstracts a collector and its batching adapter behind
// the operations the equivalence stream performs.
type equivCollector interface {
	Ingest(t units.Time, frame []byte) error
	IngestBatch(ts []units.Time, frames [][]byte) error
	Subscribe(fn func(ev CongestionEvent))
	SubscribeFlowBoundaries(fn func(t units.Time, key packet.FlowKey, kind BoundaryKind))
	SetPortMapper(m RouteResolver)
	ExpireFlows(now units.Time, idle units.Duration) int
	LinkUtilization(p int) units.Rate
	FlowRate(k packet.FlowKey) (units.Rate, bool)
	Stats() Stats
}

func equivConfig() Config {
	return Config{
		SwitchName: "sw0",
		NumPorts:   4,
		// 1 Gbps links so the skewed TCP flows cross the 90% threshold
		// regularly and the event/cooldown path is exercised hard.
		LinkRate: units.Rate(1_000_000_000),
	}
}

// runEquiv replays stream through col with a mid-stream expiry and a
// mid-stream resolver swap, then snapshots all observable state.
// flush is called at quiescence points (no-op for per-sample ingest).
func runEquiv(t *testing.T, col equivCollector, stream []timedFrame, flush func()) runResult {
	t.Helper()
	res := runResult{rates: make(map[packet.FlowKey]units.Rate)}
	col.Subscribe(func(ev CongestionEvent) {
		ev.Flows = slices.Clone(ev.Flows)
		res.events = append(res.events, ev)
	})
	col.SubscribeFlowBoundaries(func(bt units.Time, key packet.FlowKey, kind BoundaryKind) {
		res.bounds = append(res.bounds, boundaryRec{t: bt, key: key, kind: kind})
	})
	mapper1 := staticMapper{
		macB.U64():                            2,
		packet.MAC{0x02, 0, 0, 0, 0, 3}.U64(): 1,
		packet.MAC{0x02, 1, 0, 0, 0, 2}.U64(): 3,
	}
	mapper2 := staticMapper{ // reroute wave: ports shuffle, shadow goes dark
		macB.U64():                            0,
		packet.MAC{0x02, 0, 0, 0, 0, 3}.U64(): 2,
	}
	col.SetPortMapper(mapper1)
	for i, tf := range stream {
		if err := col.Ingest(tf.t, tf.b); err != nil {
			// Decode errors are returned by Ingest and only counted by the
			// batching adapter. Either way the stream goes on.
			_ = err
		}
		if i == len(stream)/2 {
			col.ExpireFlows(tf.t, 500*units.Microsecond)
		}
		if i == len(stream)*3/4 {
			flush()
			col.SetPortMapper(mapper2)
		}
	}
	flush()
	res.stats = col.Stats()
	for p := 0; p < 4; p++ {
		res.utils = append(res.utils, col.LinkUtilization(p))
	}
	var dec packet.Decoded
	for _, tf := range stream {
		if dec.Decode(tf.b) == nil {
			if key, ok := dec.Flow(); ok {
				if r, ok := col.FlowRate(key); ok {
					res.rates[key] = r
				}
			}
		}
	}
	normalizeEvents(res.events)
	return res
}

func compareRuns(t *testing.T, label string, serial, other runResult) {
	t.Helper()
	if serial.stats != other.stats {
		t.Errorf("%s: stats differ\n serial:  %+v\n other:   %+v", label, serial.stats, other.stats)
	}
	for p := range serial.utils {
		if serial.utils[p] != other.utils[p] {
			t.Errorf("%s: port %d utilization %v != %v", label, p, serial.utils[p], other.utils[p])
		}
	}
	if len(serial.rates) != len(other.rates) {
		t.Errorf("%s: tracked flows %d != %d", label, len(serial.rates), len(other.rates))
	}
	for k, r := range serial.rates {
		if sr, ok := other.rates[k]; !ok || sr != r {
			t.Errorf("%s: flow %v rate %v != %v (ok=%v)", label, k, r, sr, ok)
		}
	}
	if len(serial.bounds) != len(other.bounds) {
		t.Fatalf("%s: boundary count %d != %d", label, len(serial.bounds), len(other.bounds))
	}
	for i := range serial.bounds {
		if serial.bounds[i] != other.bounds[i] {
			t.Errorf("%s: boundary %d: %+v != %+v", label, i, serial.bounds[i], other.bounds[i])
		}
	}
	if len(serial.events) != len(other.events) {
		t.Fatalf("%s: event count %d != %d", label, len(serial.events), len(other.events))
	}
	for i := range serial.events {
		a, b := serial.events[i], other.events[i]
		if a.Time != b.Time || a.Port != b.Port || a.Util != b.Util ||
			a.Capacity != b.Capacity || a.SwitchName != b.SwitchName {
			t.Errorf("%s: event %d differs\n serial:  %+v\n other:   %+v", label, i, a, b)
			continue
		}
		if len(a.Flows) != len(b.Flows) {
			t.Errorf("%s: event %d flow count %d != %d", label, i, len(a.Flows), len(b.Flows))
			continue
		}
		for j := range a.Flows {
			if a.Flows[j] != b.Flows[j] {
				t.Errorf("%s: event %d flow %d: %+v != %+v", label, i, j, a.Flows[j], b.Flows[j])
			}
		}
	}
}
