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

// RouteResolver is the epoch-aware extension of PortMapper that the
// versioned routing plane provides (routing.View implements it). A
// collector that is handed a RouteResolver attributes each sample to
// the routing epoch that was live at the sample's timestamp instead of
// whatever state is current at processing time, so batching cannot
// change per-link attribution.
type RouteResolver interface {
	PortMapper

	// Refresh re-pins the resolver to the current published routing
	// state and returns its epoch. One atomic load; called once per
	// ingest batch, never per sample.
	Refresh() uint64

	// ResolveOutput resolves the egress port for a sample of flow key
	// labelled dst, as of the routing epoch live at time t within the
	// pinned history. It returns the epoch used so the caller can
	// stamp the flow and skip re-resolution until the epoch moves.
	// Lock-free and allocation-free: safe on the ingest hot path.
	ResolveOutput(t units.Time, key packet.FlowKey, dst packet.MAC) (port int, epoch uint64, ok bool)
}

// EpochSource is an optional RouteResolver extension exposing the
// published routing epoch as a shared atomic counter. A collector that
// finds it caches the pointer at SetPortMapper time and turns the
// per-Ingest epoch check into one inlined atomic load — skipping the
// virtual Refresh call entirely on the no-change path, which is every
// call between reroutes. The publisher must store the new epoch only
// after the state it names is visible, so a changed counter read here
// guarantees a subsequent Refresh observes that state.
type EpochSource interface {
	// EpochRef returns the counter holding the current published epoch.
	// The pointer is stable for the resolver's lifetime.
	EpochRef() *atomic.Uint64
}

var _ Ingester = (*Collector)(nil)
