package core

import (
	"sync/atomic"

	"planck/internal/packet"
	"planck/internal/units"
)

// Ingester is the sample-ingest seam shared by the Collector, the fault
// injector, and the UDP/pcap transports in the facade. Anything that can
// absorb timestamped sFlow frames — one at a time or as a poll batch —
// satisfies it.
type Ingester interface {
	// Ingest absorbs one captured frame observed at time t.
	Ingest(t units.Time, frame []byte) error
	// IngestBatch absorbs one poll's worth of frames. ts and frames
	// are parallel slices; implementations may exploit monotone
	// timestamps for a fast path. Per-frame failures are aggregated
	// (see BatchError) rather than aborting the batch.
	IngestBatch(ts []units.Time, frames [][]byte) error
}

// RouteResolver is the routing state a collector infers ports from.
// Mirrored frames carry no metadata (§3.2.1), so the collector resolves
// each sample's egress port from routing state the controller shares
// with it; the versioned routing plane provides it (routing.View). The
// collector attributes each sample to the routing epoch that was live
// at the sample's timestamp instead of whatever state is current at
// processing time, so batching cannot change per-link attribution.
type RouteResolver interface {
	// Refresh re-pins the resolver to the current published routing
	// state and returns its epoch. Called only when EpochRef's counter
	// has moved, never per sample.
	Refresh() uint64

	// ResolveOutput resolves the egress port for a sample of flow key
	// labelled dst, as of the routing epoch live at time t within the
	// pinned history. It returns the epoch used so the caller can
	// stamp the flow and skip re-resolution until the epoch moves.
	// Lock-free and allocation-free: safe on the ingest hot path.
	ResolveOutput(t units.Time, key packet.FlowKey, dst packet.MAC) (port int, epoch uint64, ok bool)

	// EpochRef returns the counter holding the current published epoch;
	// the pointer is stable for the resolver's lifetime. The collector
	// caches it at SetPortMapper time, so the per-Ingest epoch check is
	// one inlined atomic load and Refresh runs only after a reroute. The
	// publisher must store the new epoch only after the state it names
	// is visible, so a changed counter read here guarantees a
	// subsequent Refresh observes that state.
	EpochRef() *atomic.Uint64
}

var _ Ingester = (*Collector)(nil)
