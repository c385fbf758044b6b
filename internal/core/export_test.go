package core

// Helpers only core's own tests use.

// StreamBytes returns the relative stream offset of the newest sample —
// the total bytes the flow has pushed past this switch since first seen,
// regardless of how few samples survived mirroring.
func (e *RateEstimator) StreamBytes() int64 { return e.w.lastSeq - int64(e.baseSeq) }

// NewPacketSeqEstimator returns an estimator with no samples yet.
func NewPacketSeqEstimator() *PacketSeqEstimator {
	return &PacketSeqEstimator{}
}

// Iterate calls fn for every live record, in slab order: slab by slab
// as they were cut, whatever their kind. A mouse comes as the
// *FlowState view of its header, which Lookup also returns: only the
// header fields and the Rate, Rtx, Pkt and OutPort methods may be read
// through it (Collector.Flows yields mice as full copies instead). A
// pointer stays valid until its record is removed or promoted.
// Removing records during iteration — including the current one — is
// safe: iteration walks the never-moving slabs, not the probe array.
// Inserting or promoting during iteration is not.
func (t *FlowTable) Iterate(fn func(*FlowState)) {
	for s, kind := range t.kinds {
		for _, ref := range slabRefs(s, kind) {
			if f := t.record(ref); f.self != 0 {
				fn(f)
			}
		}
	}
}

// slabRefs returns the refs of every record slab s, of the given kind,
// may hand out.
func slabRefs(s int, kind recordKind) []uint32 {
	n := uint32(flowSlabSize)
	if kind == kindMouse {
		n--
	}
	var refs []uint32
	for i := uint32(0); i < n; i++ {
		if ref := uint32(s)<<refOffBits | i*uint32(recordSize[kind]/refUnit); ref != 0 {
			refs = append(refs, ref)
		}
	}
	return refs
}
