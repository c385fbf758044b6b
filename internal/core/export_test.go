package core

import "unsafe"

// Helpers only core's own tests use.

// StreamBytes returns the relative stream offset of the newest sample —
// the total bytes the flow has pushed past this switch since first seen,
// regardless of how few samples survived mirroring.
func (e *RateEstimator) StreamBytes() int64 { return e.w.lastSeq - int64(e.baseSeq) }

// NewPacketSeqEstimator returns an estimator with the paper's window
// constants.
func NewPacketSeqEstimator() *PacketSeqEstimator {
	return &PacketSeqEstimator{Est: RateEstimator{MinGap: DefaultMinGap, MaxBurst: DefaultMaxBurst}}
}

// Iterate calls fn for every live record, in slab (insertion-slot)
// order: the full records, then the mice. A mouse comes as the
// *FlowState view of its header, which Lookup also returns: only the
// header fields and the Rate, Rtx, Pkt and OutPort methods may be read
// through it (Collector.Flows yields mice as full copies instead). A
// pointer stays valid until its record is removed or promoted.
// Removing records during iteration — including the current one — is
// safe: iteration walks the never-moving slabs, not the probe array.
// Inserting or promoting during iteration is not.
func (t *FlowTable) Iterate(fn func(*FlowState)) {
	for _, slab := range t.slabs {
		for i := range slab {
			if slab[i].live {
				fn(&slab[i])
			}
		}
	}
	for _, slab := range t.mice {
		for i := range slab {
			if slab[i].live {
				fn((*FlowState)(unsafe.Pointer(&slab[i])))
			}
		}
	}
}
