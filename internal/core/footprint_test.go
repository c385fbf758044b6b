package core

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	"planck/internal/packet"
	"planck/internal/units"
)

// TestFlowRecordFootprint pins what one live flow with a full record
// costs, so that a field added to FlowState shows up here rather than as
// resident memory.
func TestFlowRecordFootprint(t *testing.T) {
	var f FlowState
	size := unsafe.Sizeof(f)
	if size > 144 || size%refUnit != 0 {
		t.Fatalf("FlowState is %d bytes; the budget is 144, in multiples of %d", size, refUnit)
	}
	// A slab is one large allocation, rounded up to whole 8 KiB pages,
	// and every record in it has a ref.
	for kind, size := range recordSize {
		slab := flowSlabSize * size
		if slab%8192 != 0 || size%refUnit != 0 {
			t.Errorf("a slab of %d kind-%d records of %d bytes is %d bytes, %d short of whole pages",
				flowSlabSize, kind, size, slab, 8192-slab%8192)
		}
		if slab > (refOffMask+1)*refUnit {
			t.Errorf("a slab of kind-%d records is %d bytes, past the %d a ref reaches", kind, slab, (refOffMask+1)*refUnit)
		}
	}

	// Every field a sample of a resident flow reads or writes ends inside
	// the first 128 bytes. FirstSeen, written once at insert, may lie
	// beyond.
	type field struct {
		name      string
		off, size uintptr
	}
	hot := []field{
		{"Key", unsafe.Offsetof(f.Key), unsafe.Sizeof(f.Key)},
		{"DstMAC", unsafe.Offsetof(f.DstMAC), unsafe.Sizeof(f.DstMAC)},
		{"flags", unsafe.Offsetof(f.flags), unsafe.Sizeof(f.flags)},
		{"self", unsafe.Offsetof(f.self), unsafe.Sizeof(f.self)},
		{"LastSeen", unsafe.Offsetof(f.LastSeen), unsafe.Sizeof(f.LastSeen)},
		{"SampledPackets", unsafe.Offsetof(f.SampledPackets), unsafe.Sizeof(f.SampledPackets)},
		{"SampledBytes", unsafe.Offsetof(f.SampledBytes), unsafe.Sizeof(f.SampledBytes)},
		{"est", unsafe.Offsetof(f.est), unsafe.Sizeof(f.est)},
		{"counted", unsafe.Offsetof(f.counted), unsafe.Sizeof(f.counted)},
		{"routeEpoch", unsafe.Offsetof(f.routeEpoch), unsafe.Sizeof(f.routeEpoch)},
		{"prev", unsafe.Offsetof(f.prev), unsafe.Sizeof(f.prev)},
		{"next", unsafe.Offsetof(f.next), unsafe.Sizeof(f.next)},
		{"outPort", unsafe.Offsetof(f.outPort), unsafe.Sizeof(f.outPort)},
		{"portSlot", unsafe.Offsetof(f.portSlot), unsafe.Sizeof(f.portSlot)},
	}
	for _, h := range hot {
		if h.off+h.size > 128 {
			t.Errorf("per-sample field %s spans bytes %d–%d, past the first 128", h.name, h.off, h.off+h.size)
		}
	}
	// Links are 4-byte refs.
	if unsafe.Sizeof(f.prev) != 4 || unsafe.Sizeof(f.next) != 4 || unsafe.Sizeof(f.self) != 4 {
		t.Errorf("prev, next and self are %d, %d and %d bytes, not 4-byte refs",
			unsafe.Sizeof(f.prev), unsafe.Sizeof(f.next), unsafe.Sizeof(f.self))
	}
	// retireStale's walk over the flows going stale reads these three per
	// flow, and LastSeen and counted; all five lie in the header's first
	// line, in a mouse as in a full record.
	if line := unsafe.Offsetof(f.next) / 64; unsafe.Offsetof(f.outPort)/64 != line || unsafe.Offsetof(f.portSlot)/64 != line ||
		unsafe.Offsetof(f.LastSeen)/64 != line || unsafe.Offsetof(f.counted)/64 != line {
		t.Errorf("next (%d), outPort (%d), portSlot (%d), LastSeen (%d) and counted (%d) are not in one 64-byte line",
			unsafe.Offsetof(f.next), unsafe.Offsetof(f.outPort), unsafe.Offsetof(f.portSlot),
			unsafe.Offsetof(f.LastSeen), unsafe.Offsetof(f.counted))
	}

	// Everything the collector keeps per flow — record, probe slot and
	// control byte, port-list entry — measured as retained heap, with
	// every flow sampled twice so that it holds a full record.
	const flows = 100_000
	per := retainedPerFlow(t, flows, func(c *Collector) {
		fillPortTwice(t, c, flows, 0, units.Microsecond)
		mouseSlabs, free := 0, 0
		for s, kind := range c.flows.kinds {
			if kind == kindMouse {
				mouseSlabs++
				free += len(slabRefs(s, kind))
			}
		}
		if mouseSlabs != 1 || len(c.flows.free[kindMouse]) != free {
			t.Fatalf("%d mouse slabs, %d of %d mice free: not every flow was promoted", mouseSlabs, len(c.flows.free[kindMouse]), free)
		}
	})
	t.Logf("%d-byte record, %.1f bytes retained per flow", size, per)
	if per > fullFlowBudget {
		t.Fatalf("a live flow costs %.1f bytes; the budget is %d", per, fullFlowBudget)
	}
}

// TestMouseRecordFootprint pins what a flow sampled once costs: under
// scan traffic nearly every sample is a new one-packet flow, and each
// is held as a mouse until its second sample.
func TestMouseRecordFootprint(t *testing.T) {
	size := unsafe.Sizeof(mouseRecord{})
	if size > 80 || size%16 != 0 {
		t.Fatalf("mouseRecord is %d bytes; the budget is 80, in multiples of 16", size)
	}
	if slab := flowSlabSize * size; slab%8192 != 0 {
		t.Fatalf("a slab of %d mice is %d bytes, %d short of whole pages", flowSlabSize, slab, 8192-slab%8192)
	}
	// A mouse is read and written through *FlowState up to the end of
	// its header, so every header field sits where FlowState has it, and
	// both records go on past it only after it ends.
	var f FlowState
	var m mouseRecord
	for _, h := range []struct {
		name        string
		full, mouse uintptr
	}{
		{"Key", unsafe.Offsetof(f.Key), unsafe.Offsetof(m.Key)},
		{"DstMAC", unsafe.Offsetof(f.DstMAC), unsafe.Offsetof(m.DstMAC)},
		{"flags", unsafe.Offsetof(f.flags), unsafe.Offsetof(m.flags)},
		{"self", unsafe.Offsetof(f.self), unsafe.Offsetof(m.self)},
		{"LastSeen", unsafe.Offsetof(f.LastSeen), unsafe.Offsetof(m.LastSeen)},
		{"counted", unsafe.Offsetof(f.counted), unsafe.Offsetof(m.counted)},
		{"prev", unsafe.Offsetof(f.prev), unsafe.Offsetof(m.prev)},
		{"next", unsafe.Offsetof(f.next), unsafe.Offsetof(m.next)},
		{"outPort", unsafe.Offsetof(f.outPort), unsafe.Offsetof(m.outPort)},
		{"portSlot", unsafe.Offsetof(f.portSlot), unsafe.Offsetof(m.portSlot)},
		{"routeEpoch", unsafe.Offsetof(f.routeEpoch), unsafe.Offsetof(m.routeEpoch)},
	} {
		if h.full != h.mouse {
			t.Errorf("header field %s is at offset %d in FlowState, %d in mouseRecord", h.name, h.full, h.mouse)
		}
	}
	if head := unsafe.Offsetof(m.routeEpoch) + unsafe.Sizeof(m.routeEpoch); unsafe.Offsetof(m.seq) < head || unsafe.Offsetof(f.SampledPackets) < head {
		t.Errorf("the header ends at %d, but mouseRecord.seq is at %d and FlowState.SampledPackets at %d",
			head, unsafe.Offsetof(m.seq), unsafe.Offsetof(f.SampledPackets))
	}

	const flows = 100_000
	per := retainedPerFlow(t, flows, func(c *Collector) { fillPort(t, c, flows, 0, units.Microsecond) })
	t.Logf("%d-byte mouse, %.1f bytes retained per flow", size, per)
	if per > mouseFlowBudget {
		t.Fatalf("a one-sample flow costs %.1f bytes; the budget is %d", per, mouseFlowBudget)
	}
}

// The retained-heap budgets per live flow: each is the figure measured
// at the current layout (172.8 and 108.2 bytes on linux/amd64) plus the
// margin the budgets have always kept.
const (
	fullFlowBudget  = 195
	mouseFlowBudget = 115
)

// TestFlowRecordsHoldNoPointers keeps every per-flow structure free of
// anything the garbage collector must scan: the records of each kind,
// the extension estimators that live in extension records' words, the
// probe slots and the port-list entries. A field that brought a pointer
// back would make each collection scan the slabs again.
func TestFlowRecordsHoldNoPointers(t *testing.T) {
	var c Collector
	for _, typ := range []reflect.Type{
		reflect.TypeOf(FlowState{}),
		reflect.TypeOf(mouseRecord{}),
		reflect.TypeOf(extRecord{}),
		reflect.TypeOf(RetransmitEstimator{}),
		reflect.TypeOf(PacketSeqEstimator{}),
		reflect.TypeOf(flowSlot{}),
		reflect.TypeOf(c.portFlows).Elem().Elem(),
	} {
		if path, kind, ok := findPointer(typ, typ.Name()); ok {
			t.Errorf("%s holds a %v at %s", typ, kind, path)
		}
	}
}

// findPointer returns the path to the first field of typ the garbage
// collector would scan, and its kind.
func findPointer(typ reflect.Type, path string) (string, reflect.Kind, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
		return path, typ.Kind(), true
	case reflect.Array:
		return findPointer(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, k, ok := findPointer(f.Type, path+"."+f.Name); ok {
				return p, k, true
			}
		}
	}
	return "", 0, false
}

// TestFlowTableInvisibleToGC measures what the garbage collector scans:
// filling a collector with flows of each record kind must leave the
// scannable heap within 1 MB of an empty collector's, however many
// records the slabs hold.
func TestFlowTableInvisibleToGC(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		fill func(c *Collector)
	}{
		{"mice", Config{}, func(c *Collector) { fillPort(t, c, 200_000, 0, units.Microsecond) }},
		{"full", Config{}, func(c *Collector) { fillPortTwice(t, c, 50_000, 0, units.Microsecond) }},
		{"retransmits", Config{TrackRetransmits: true}, func(c *Collector) { fillPort(t, c, 50_000, 0, units.Microsecond) }},
		{"udp", Config{UDPSeqEnabled: true}, func(c *Collector) { fillUDP(t, c, 50_000) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.SwitchName, cfg.NumPorts, cfg.LinkRate = "sw0", 4, units.Rate10G
			c := New(cfg)
			c.SetPortMapper(staticMapper{macB.U64(): 2})
			before := scannableHeap()
			tc.fill(c)
			after := scannableHeap()
			n := c.Stats().Flows
			runtime.KeepAlive(c)
			grew := int64(after) - int64(before)
			t.Logf("%d flows: scannable heap %d → %d B (%+d B)", n, before, after, grew)
			if n == 0 || grew >= 1<<20 {
				t.Fatalf("%d flows grew the scannable heap by %d B; the budget is 1 MB", n, grew)
			}
		})
	}
}

// scannableHeap collects, then returns the heap bytes that collection
// scanned.
func scannableHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fillUDP ingests one counter-carrying UDP datagram each for n flows
// labelled macB.
func fillUDP(t testing.TB, c *Collector, n int) {
	t.Helper()
	var frame []byte
	for i := 0; i < n; i++ {
		frame = packet.BuildUDP(frame[:0], packet.UDPSpec{
			SrcMAC: macA, DstMAC: macB,
			SrcIP: packet.IPv4{10, byte(i >> 16), byte(i >> 8), byte(i)}, DstIP: ipB,
			SrcPort: 1000, DstPort: 2000, PayloadLen: 8, Seq: 1, HasSeq: true,
		})
		if err := c.Ingest(units.Time(i), frame); err != nil {
			t.Fatal(err)
		}
	}
}

// retainedPerFlow measures the heap a fresh collector retains after fill
// gives it flows live flows, per flow.
func retainedPerFlow(t *testing.T, flows int, fill func(c *Collector)) float64 {
	t.Helper()
	c := newTestCollector()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fill(c)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := c.Stats().Flows; n != flows {
		t.Fatalf("%d flows live, want %d", n, flows)
	}
	runtime.KeepAlive(c)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(flows)
}

// fillPortTwice is fillPort with each flow sampled a second time, step/2
// after its first and before the next flow's, which promotes it to a
// full record while the mouse it was is recycled for the next flow.
func fillPortTwice(t testing.TB, c *Collector, n int, t0 units.Time, step units.Duration) units.Time {
	t.Helper()
	var frame []byte
	for i := c.flows.Len(); n > 0; i, n = i+1, n-1 {
		for j, at := range []units.Time{t0, t0.Add(step / 2)} {
			frame = packet.BuildTCP(frame[:0], packet.TCPSpec{
				SrcMAC: macA, DstMAC: macB,
				SrcIP: packet.IPv4{10, byte(i >> 16), byte(i >> 8), byte(i)}, DstIP: ipB,
				SrcPort: 1000, DstPort: 2000, Seq: uint32(j), Flags: packet.TCPSyn,
			})
			if err := c.Ingest(at, frame); err != nil {
				t.Fatal(err)
			}
		}
		t0 = t0.Add(step)
	}
	return t0
}
