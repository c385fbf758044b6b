package core

import (
	"slices"
	"testing"

	"planck/internal/packet"
	"planck/internal/units"
)

// churnStream is a small copy of the churn workload's shape, one sample
// per µs: 9 samples in 10 are SYNs of never-seen 5-tuples, 1 in 10
// belongs to one of two 4.8 Gb/s elephants, and everything leaves on
// port 2, so the port runs over the 90 % threshold and its events list
// every fresh scan flow.
type churnStream struct {
	n, scans int
	ts       []units.Time
	frames   [][]byte
}

const churnIdle = 20 * units.Millisecond // ≈18k live flows

func newChurnStream(batch int) *churnStream {
	s := &churnStream{ts: make([]units.Time, batch), frames: make([][]byte, batch)}
	for i := range s.frames {
		s.frames[i] = tcpFrame(0, 0)
	}
	return s
}

// next fills the batch in place.
func (s *churnStream) next() {
	for i := range s.ts {
		spec := packet.TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, DstPort: 5001}
		if s.n%10 == 0 {
			e := s.n / 10 % 2
			spec.SrcPort = uint16(1000 + e)
			spec.Seq = uint32(s.n * 600) // 600 B/µs
			spec.Flags, spec.PayloadLen = packet.TCPAck, 1460
		} else {
			spec.SrcIP = packet.IPv4{11, byte(s.scans >> 16), byte(s.scans >> 8), byte(s.scans)}
			spec.SrcPort = uint16(s.scans)
			spec.Flags = packet.TCPSyn
			s.scans++
		}
		s.ts[i] = units.Time(s.n) * units.Time(units.Microsecond)
		s.frames[i] = packet.BuildTCP(s.frames[i][:0], spec)
		s.n++
	}
}

// TestChurnIngestDoesNotAllocate: once the table holds its steady
// population, a churn-shaped stream (inserts, expiry every 5 ms, and
// congestion events listing thousands of flows) costs no allocation. Each
// event borrows the collector's flow list instead of allocating one.
func TestChurnIngestDoesNotAllocate(t *testing.T) {
	const batch = 64
	c := newTestCollector()
	events, listed := 0, 0
	c.Subscribe(func(ev CongestionEvent) {
		events++
		listed += len(ev.Flows)
	})
	s := newChurnStream(batch)
	lastExpiry := units.Time(0)
	step := func() {
		s.next()
		if err := c.IngestBatch(s.ts, s.frames); err != nil {
			t.Fatal(err)
		}
		if now := s.ts[batch-1]; now.Sub(lastExpiry) >= 5*units.Millisecond {
			c.ExpireFlows(now, churnIdle)
			lastExpiry = now
		}
	}
	for s.n < int(3*churnIdle/units.Microsecond) {
		step()
	}
	warmEvents := events
	if warmEvents == 0 {
		t.Fatal("no congestion event while warming; the stream never crossed the threshold")
	}
	// One run of 1000 batches, so that a single allocation anywhere in
	// 64 ms of stream counts (AllocsPerRun rounds its mean down).
	if a := testing.AllocsPerRun(1, func() {
		for range 1000 {
			step()
		}
	}); a != 0 {
		t.Errorf("churn stream allocates %.0f times in 1000 batches of %d", a, batch)
	}
	// An event fires when an elephant's sample closes a rate window past
	// the cooldown: about every 700 µs per elephant.
	if n := events - warmEvents; n < 100 {
		t.Errorf("%d events while measuring 128 ms of stream, want at least 100", n)
	}
	if per := listed / events; per < 4_000 {
		t.Errorf("events list %d flows on average; the port carries ≈4.5k fresh flows", per)
	}
}

// TestNestedEventKeepsOuterFlows: a subscriber that makes the same
// collector emit again, for another port, gets a list of its own; the
// outer event's Flows still hold the outer port's flows afterwards.
func TestNestedEventKeepsOuterFlows(t *testing.T) {
	macC := packet.MAC{0x02, 0, 0, 0, 0, 3}
	c := newTestCollector()
	c.SetPortMapper(staticMapper{macB.U64(): 2, macC.U64(): 1})
	// An elephant and 100 mice on port 2, another elephant and 50 mice
	// on port 1: both links run at ≈9.5 Gb/s, over the threshold.
	var at units.Time
	var seq uint32
	for i := 0; i < 3000; i++ {
		for _, dst := range []packet.MAC{macB, macC} {
			frame := packet.BuildTCP(nil, packet.TCPSpec{
				SrcMAC: macA, DstMAC: dst, SrcIP: ipA, DstIP: ipB,
				SrcPort: uint16(dst[5]), DstPort: 2000, Seq: seq, Flags: packet.TCPAck, PayloadLen: 1460,
			})
			if err := c.Ingest(at, frame); err != nil {
				t.Fatal(err)
			}
		}
		seq += 1460
		at = at.Add(1230)
	}
	for i := 0; i < 150; i++ {
		dst := macB
		if i%3 == 2 {
			dst = macC
		}
		frame := packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: dst, SrcIP: packet.IPv4{11, 0, 0, byte(i)}, DstIP: ipB,
			SrcPort: uint16(i), DstPort: 2000, Flags: packet.TCPSyn,
		})
		if err := c.Ingest(at, frame); err != nil {
			t.Fatal(err)
		}
	}
	elephant := func(dst packet.MAC) *FlowState {
		return c.Flow(packet.FlowKey{SrcIP: ipA, DstIP: ipB, SrcPort: uint16(dst[5]), DstPort: 2000, Proto: packet.IPProtocolTCP})
	}
	want2, want1 := c.FlowsOnPort(2), c.FlowsOnPort(1)
	if len(want2) != 101 || len(want1) != 51 {
		t.Fatalf("%d flows on port 2 and %d on port 1, want 101 and 51", len(want2), len(want1))
	}

	var outer, inner []FlowInfo
	nest := false
	c.Subscribe(func(ev CongestionEvent) {
		if ev.Port == 1 {
			inner = slices.Clone(ev.Flows)
			return
		}
		outer = ev.Flows
		if !nest {
			return
		}
		c.CheckCongestion(ev.Time, elephant(macC), 0)
		if inner == nil {
			t.Fatal("the nested check on port 1 emitted no event")
		}
		if !slices.Equal(outer, want2) {
			t.Error("the nested event on port 1 overwrote the outer event's flows")
		}
	})
	// The first event leaves the collector a list big enough for either
	// port; the second, past the cooldown, nests an event on port 1.
	c.CheckCongestion(at, elephant(macB), 0)
	if outer == nil {
		t.Fatal("the check on port 2 emitted no event")
	}
	nest = true
	c.CheckCongestion(at.Add(c.cfg.EventCooldown), elephant(macB), 0)
	if !slices.Equal(inner, want1) {
		t.Errorf("nested event lists %d flows, want port 1's %d", len(inner), len(want1))
	}
}
