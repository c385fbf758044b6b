package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"planck/internal/packet"
	"planck/internal/units"
)

// A TCP flow's first sample files it as a compact mouse record unless
// it needs an extension from the start; retransmit tracking is one, so
// a collector with TrackRetransmits files every flow as a full record
// from its first sample. That collector is the reference here: fed the
// same stream, a collector that starts flows as mice must answer every
// query the same way, and yield the same records from Flows, but for
// the retransmit estimator itself.

// flowSnap is what Flows yields for one flow, with what may differ
// between the two collectors taken out: the retransmit extension, and
// the record's refs, its own and its recency links, which become the
// neighbours' keys.
type flowSnap struct {
	rec              FlowState
	prev, next       packet.FlowKey
	hasPrev, hasNext bool
}

func snapFlows(c *Collector) []flowSnap {
	var out []flowSnap
	c.Flows(func(f *FlowState) {
		s := flowSnap{rec: *f}
		s.rec.flags &^= extRtx
		if f.prev != 0 {
			s.prev, s.hasPrev = c.flows.record(f.prev).Key, true
		}
		if f.next != 0 {
			s.next, s.hasNext = c.flows.record(f.next).Key, true
		}
		s.rec.self, s.rec.prev, s.rec.next = 0, 0, 0
		out = append(out, s)
	})
	return out
}

// equivPair is the reference collector, the mouse collector, and the
// events each has emitted.
type equivPair struct {
	full, mice     *Collector
	fullEv, miceEv []CongestionEvent
}

func (p *equivPair) compare(t *testing.T, step int, what string) {
	t.Helper()
	if a, b := p.full.Stats(), p.mice.Stats(); a != b {
		t.Fatalf("step %d (%s): stats %+v, with mice %+v", step, what, a, b)
	}
	for port := -1; port <= p.full.cfg.NumPorts; port++ {
		if a, b := p.full.LinkUtilization(port), p.mice.LinkUtilization(port); a != b {
			t.Fatalf("step %d (%s): port %d utilisation %v, with mice %v", step, what, port, a, b)
		}
		if a, b := p.full.FlowsOnPort(port), p.mice.FlowsOnPort(port); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d (%s): port %d flows\n%+v\nwith mice\n%+v", step, what, port, a, b)
		}
	}
	if !reflect.DeepEqual(p.fullEv, p.miceEv) {
		t.Fatalf("step %d (%s): events\n%+v\nwith mice\n%+v", step, what, p.fullEv, p.miceEv)
	}
	a, b := snapFlows(p.full), snapFlows(p.mice)
	if len(a) != len(b) {
		t.Fatalf("step %d (%s): Flows yields %d flows, with mice %d", step, what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d (%s): flow %d is\n%+v\nwith mice\n%+v", step, what, i, a[i], b[i])
		}
	}
	checkLinkLoadInvariants(t, p.mice)
	checkMouseRefs(t, &p.mice.flows)
}

// runMouseEquivalence interprets sc as a stream of batches, routing
// commits, expiries and queries, feeds it to both collectors, and
// compares them after every step.
func runMouseEquivalence(t *testing.T, sc []byte) {
	const (
		numPorts  = 4
		hotFlows  = 16 // flows sampled again and again
		batchSize = 8
	)
	labels := []packet.MAC{macB, {0x02, 1, 0, 0, 0, 2}, {0x02, 2, 0, 0, 0, 2}, {0x02, 3, 0, 0, 0, 2}}
	l := func(i int) uint64 { return labels[i].U64() }
	tables := []staticMapper{
		{l(0): 2, l(1): 3, l(2): 1, l(3): 7},
		{l(0): 3, l(1): 3, l(3): 0},
		{l(0): 2, l(1): 0, l(2): 2},
		{},
	}
	// Gaps inside a window, closing one, and past FlowFreshness (5 ms).
	gaps := []units.Duration{0, units.Microsecond, 30 * units.Microsecond, 250 * units.Microsecond,
		800 * units.Microsecond, 5 * units.Millisecond, 6 * units.Millisecond}
	// Idle horizons below, at and above FlowFreshness.
	idles := []units.Duration{units.Millisecond, 5*units.Millisecond - 1, 5 * units.Millisecond,
		5*units.Millisecond + 1, 8 * units.Millisecond}
	s := &script{b: sc}

	routes := &fakeRoutes{}
	routes.commit(0, tables[0])
	p := &equivPair{}
	mk := func(rtx bool, evs *[]CongestionEvent) *Collector {
		c := New(Config{SwitchName: "sw0", NumPorts: numPorts, LinkRate: 40 * units.Mbps, TrackRetransmits: rtx})
		c.SetPortMapper(&fakeView{r: routes})
		c.Subscribe(func(ev CongestionEvent) {
			ev.Flows = slices.Clone(ev.Flows)
			*evs = append(*evs, ev)
		})
		return c
	}
	p.full = mk(true, &p.fullEv)
	p.mice = mk(false, &p.miceEv)

	var now units.Time
	hotSeq := make([]uint32, hotFlows)
	scanned := 0 // one-sample flows so far: each gets a key of its own
	keyOf := func(i int) packet.FlowKey {
		if i < hotFlows {
			return packet.FlowKey{SrcIP: ipA, DstIP: ipB, SrcPort: uint16(1000 + i), DstPort: 2000, Proto: packet.IPProtocolTCP}
		}
		j := i - hotFlows
		return packet.FlowKey{SrcIP: packet.IPv4{10, 9, byte(j >> 8), byte(j)}, DstIP: ipB, SrcPort: 40000, DstPort: 80, Proto: packet.IPProtocolTCP}
	}
	arp := packet.BuildARP(nil, packet.ARPSpec{
		SrcMAC: macA, DstMAC: macB, Op: packet.ARPRequest,
		SenderMAC: macA, SenderIP: ipA, TargetIP: ipB,
	})
	both := func(fn func(c *Collector)) { fn(p.full); fn(p.mice) }
	ts := make([]units.Time, 0, batchSize)
	frames := make([][]byte, batchSize)

	for step := 0; s.i < len(s.b); step++ {
		what := ""
		switch op := s.next() % 16; {
		case op < 10:
			what = "batch"
			ts = ts[:0]
			for n := 1 + s.next()%batchSize; len(ts) < n; {
				arg := s.next()
				var i int
				var seq uint32
				flags := uint8(packet.TCPAck)
				switch kind := arg & 3; {
				case kind == 0: // a new flow, sampled once so far
					i = hotFlows + scanned
					scanned++
					seq, flags = uint32(arg)<<20, packet.TCPSyn
				case kind == 1 && scanned > 0: // a scanned flow heard again
					i = hotFlows + s.next()%scanned
					seq = 1<<31 + uint32(arg)<<8
				default:
					i = s.next() % hotFlows
					if arg&0x40 == 0 {
						hotSeq[i] += 1460
					}
					seq = hotSeq[i] // unchanged: a repeat, closes no window
				}
				k := keyOf(i)
				now = now.Add(gaps[(arg>>2)%len(gaps)])
				ts = append(ts, now)
				frames[len(ts)-1] = packet.BuildTCP(frames[len(ts)-1][:0], packet.TCPSpec{
					SrcMAC: macA, DstMAC: labels[(arg>>5)%len(labels)], SrcIP: k.SrcIP, DstIP: k.DstIP,
					SrcPort: k.SrcPort, DstPort: k.DstPort, Seq: seq, Flags: flags, PayloadLen: 1460 - int(arg),
				})
			}
			both(func(c *Collector) {
				if err := c.IngestBatch(ts, frames[:len(ts)]); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			})
		case op == 10 || op == 11:
			what = "routing-epoch commit"
			arg := s.next()
			at := now
			if arg&0x80 != 0 {
				at = at.Add(400 * units.Microsecond) // live only for later samples
			}
			routes.commit(at, tables[arg%len(tables)])
			both(func(c *Collector) { _ = c.Ingest(now, arp) })
		case op == 12 || op == 13:
			what = "expiry"
			arg := s.next()
			idle := idles[arg%len(idles)]
			at := now.Add(units.Duration(arg>>4) * 500 * units.Microsecond)
			if a, b := p.full.ExpireFlows(at, idle), p.mice.ExpireFlows(at, idle); a != b {
				t.Fatalf("step %d: ExpireFlows(%v, %v) removed %d, with mice %d", step, at, idle, a, b)
			}
		case op == 14:
			what = "Flow query"
			k := keyOf(s.next() % (hotFlows + scanned + 1))
			a, b := p.full.Flow(k), p.mice.Flow(k)
			if (a == nil) != (b == nil) {
				t.Fatalf("step %d: Flow(%v) = %v, with mice %v", step, k, a, b)
			}
			if a != nil && (a.SampledPackets != b.SampledPackets || a.FirstSeen != b.FirstSeen || a.est != b.est || b.flags&isMouse != 0) {
				t.Fatalf("step %d: Flow(%v) = %+v, with mice %+v", step, k, *a, *b)
			}
		default:
			what = "time jump"
			now = now.Add(units.Duration(s.next()) * 50 * units.Microsecond)
			both(func(c *Collector) { _ = c.Ingest(now, arp) })
		}
		p.compare(t, step, what)
	}
}

func TestMouseRecordsMatchFullRecords(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		runMouseEquivalence(t, randomScript(seed, 4000))
	}
}

// FuzzMouseEquivalence lets the fuzzer write the stream.
func FuzzMouseEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomScript(seed, 600))
	}
	f.Fuzz(func(t *testing.T, sc []byte) {
		if len(sc) > 4096 {
			sc = sc[:4096]
		}
		runMouseEquivalence(t, sc)
	})
}

// checkMouseRefs verifies the record kinds against the slots that name
// them: a ref into a mouse slab names a live mouse, a ref into a slab of
// another kind a live record of that kind, every live record's self is
// the ref naming it, each record is named by exactly one slot, and
// every free-listed record of each kind is blank and lies in a slab of
// its kind.
func checkMouseRefs(t *testing.T, tab *FlowTable) {
	t.Helper()
	named := make(map[*FlowState]bool, tab.count)
	for i, s := range tab.slots {
		if s.ref == 0 {
			continue
		}
		f := tab.record(s.ref)
		if f.self != s.ref || tab.kinds[s.ref>>refOffBits] != kindOf(f.flags) {
			t.Fatalf("slot %d: ref %#x names a record with self %#x, flags %#x", i, s.ref, f.self, f.flags)
		}
		if named[f] {
			t.Fatalf("slot %d: a second slot names %v", i, f.Key)
		}
		named[f] = true
	}
	for kind, free := range tab.free {
		for _, ref := range free {
			if tab.kinds[ref>>refOffBits] != recordKind(kind) {
				t.Fatalf("free kind-%d record %#x lies in a slab of kind %d", kind, ref, tab.kinds[ref>>refOffBits])
			}
			blank := false
			switch f := tab.record(ref); recordKind(kind) {
			case kindMouse:
				blank = *asMouse(f) == (mouseRecord{})
			case kindExt:
				blank = *(*extRecord)(unsafe.Pointer(f)) == (extRecord{})
			default:
				blank = *f == (FlowState{})
			}
			if !blank {
				t.Fatalf("free kind-%d record %#x is not blank", kind, ref)
			}
		}
	}
}

// TestIngestMouseAndPromotionAllocateNothing: once the slabs, the probe
// array and the port list have grown, a sample allocates nothing,
// whether it files a mouse, promotes one or updates a full record.
func TestIngestMouseAndPromotionAllocateNothing(t *testing.T) {
	c := newTestCollector()
	const n = 4096
	frame := make([]byte, 0, 128)
	at := units.Time(0)
	sample := func(i int, seq uint32) {
		at = at.Add(units.Microsecond)
		frame = packet.BuildTCP(frame[:0], packet.TCPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: packet.IPv4{10, 7, byte(i >> 8), byte(i)}, DstIP: ipB,
			SrcPort: 1000, DstPort: 2000, Seq: seq, Flags: packet.TCPAck, PayloadLen: 1460,
		})
		if err := c.Ingest(at, frame); err != nil {
			t.Fatal(err)
		}
	}
	// Grow everything to n flows of each kind, then give every record back.
	for i := 0; i < 2*n; i++ {
		sample(i, 0)
		if i < n {
			sample(i, 1460)
		}
	}
	c.ExpireFlows(at.Add(units.Second), 0)
	// One run of n/2 flows (after as many warming), so that a single
	// allocation counts: AllocsPerRun rounds its mean down.
	i := 0
	if a := testing.AllocsPerRun(1, func() {
		for range n / 2 {
			sample(i, 0)    // a new mouse
			sample(i, 1460) // its promotion
			sample(i, 2920) // a full record's update
			i++
		}
	}); a != 0 {
		t.Fatalf("%.0f allocations in %d mice, promotions and updates", a, n/2)
	}
}

// TestFoldPromotesAMouse: a report folded into a collector that holds
// the flow as a mouse lands in the full record the mouse is promoted to.
func TestFoldPromotesAMouse(t *testing.T) {
	c := newTestCollector()
	at := fillPort(t, c, 3, 0, units.Microsecond)
	k := packet.FlowKey{SrcIP: packet.IPv4{10, 0, 0, 1}, DstIP: ipB, SrcPort: 1000, DstPort: 2000, Proto: packet.IPProtocolTCP}
	rep := FlowReport{Time: at, Key: k, DstMAC: macB, OutPort: 2, Rate: units.Gbps, RateOK: true}
	f := c.Fold(&rep)
	if f == nil || f.flags&isMouse != 0 || f.SampledPackets != 1 || f.LastSeen != at {
		t.Fatalf("Fold into a mouse gave %+v", f)
	}
	if r, ok := f.Rate(); !ok || r != rep.Rate || c.LinkUtilization(2) != rep.Rate {
		t.Fatalf("folded rate %v/%v, port 2 carries %v; want %v", r, ok, c.LinkUtilization(2), rep.Rate)
	}
	checkLinkLoadInvariants(t, c)
	checkMouseRefs(t, &c.flows)
}
