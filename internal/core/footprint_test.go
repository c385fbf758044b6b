package core

import (
	"runtime"
	"testing"
	"unsafe"

	"planck/internal/units"
)

// TestFlowRecordFootprint pins what one live flow costs, so that a field
// added to FlowState shows up here rather than as resident memory under
// scan traffic, where nearly every sample is a new one-packet flow.
func TestFlowRecordFootprint(t *testing.T) {
	var f FlowState
	size := unsafe.Sizeof(f)
	if size > 160 || size%16 != 0 {
		t.Fatalf("FlowState is %d bytes; the budget is 160, in multiples of 16", size)
	}
	// A slab is one large allocation, rounded up to whole 8 KiB pages.
	if slab := flowSlabSize * size; slab%8192 != 0 {
		t.Fatalf("a slab of %d records is %d bytes, %d short of whole pages", flowSlabSize, slab, 8192-slab%8192)
	}

	// Every field a sample of a resident flow reads or writes ends inside
	// the first 128 bytes. FirstSeen and ext, written once at insert,
	// may lie beyond.
	type field struct {
		name      string
		off, size uintptr
	}
	hot := []field{
		{"Key", unsafe.Offsetof(f.Key), unsafe.Sizeof(f.Key)},
		{"DstMAC", unsafe.Offsetof(f.DstMAC), unsafe.Sizeof(f.DstMAC)},
		{"flags", unsafe.Offsetof(f.flags), unsafe.Sizeof(f.flags)},
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
	// retireStale's walk over the flows going stale reads these three per flow.
	if line := unsafe.Offsetof(f.next) / 64; unsafe.Offsetof(f.outPort)/64 != line || unsafe.Offsetof(f.portSlot)/64 != line {
		t.Errorf("next (%d), outPort (%d) and portSlot (%d) are not in one 64-byte line",
			unsafe.Offsetof(f.next), unsafe.Offsetof(f.outPort), unsafe.Offsetof(f.portSlot))
	}

	// Everything the collector keeps per flow — record, probe slot and
	// control byte, port-list entry — measured as retained heap.
	const flows = 100_000
	c := newTestCollector()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fillPort(t, c, flows, 0, units.Microsecond)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := c.Stats().Flows; n != flows {
		t.Fatalf("%d flows live, want %d", n, flows)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / flows
	t.Logf("%d-byte record, %.1f bytes retained per flow", size, per)
	if per > 200 {
		t.Fatalf("a live flow costs %.1f bytes; the budget is 200", per)
	}
	runtime.KeepAlive(c)
}
