// Package core implements the Planck collector — the paper's primary
// contribution. A collector consumes the raw frame stream arriving on a
// switch's oversubscribed monitor port and turns it into:
//
//   - per-flow throughput estimates computed from TCP sequence numbers,
//     which are robust to the unknown, load-dependent sampling rate that
//     oversubscribed mirroring produces (§3.2.2);
//   - per-egress-link utilization, by mapping each flow to its output
//     port using controller-shared routing state (§3.2.1);
//   - threshold-crossing congestion events annotated with the flows on
//     the link and their rates (§3.3);
//   - a vantage-point ring of raw samples dumpable as pcap (§6.1).
//
// The package is deliberately free of simulator dependencies: Ingest
// takes (timestamp, frame bytes), so the same collector runs against the
// simulator, a pcap file, or a live encapsulated sample stream.
package core

import (
	"unsafe"

	"planck/internal/packet"
	"planck/internal/units"
)

// RateEstimator tracks one flow's throughput from sampled sequence
// numbers using the paper's burst-clustering scheme: estimation windows
// end either when a gap of at least MinGap separates two samples (a burst
// boundary — common during slow start) or when a window exceeds MaxBurst
// (steady state, where gaps vanish). Each window's rate is the sequence
// delta across the whole window, so idle gaps between bursts are included
// and the estimate converges to the flow's average rate rather than its
// in-burst line rate — this is what turns Fig. 10(a)'s jitter into
// Fig. 10(b)'s smooth ramp.
//
// The collector's flow records run the same estimator on a compact copy
// of its state (FlowState).
type RateEstimator struct {
	w       rateWindow
	flags   uint8
	baseSeq uint32 // the first sample's sequence number, StreamBytes' origin

	// OOO counts samples ignored because their sequence number regressed
	// (reordering or retransmission, indistinguishable at the collector;
	// the paper ignores both for estimation).
	OOO int64
	// Samples counts sequence-carrying samples folded in.
	Samples int64
}

// The estimator's window bounds, from §3.2.2 and footnote 2.
const (
	MinGap   = 200 * units.Microsecond
	MaxBurst = 700 * units.Microsecond
)

// NewRateEstimator returns an estimator with no samples yet.
func NewRateEstimator() *RateEstimator {
	return &RateEstimator{}
}

// Observe folds in one sample with sequence number seq taken at time t.
// It returns true when the sample closed an estimation window and updated
// the rate.
func (e *RateEstimator) Observe(t units.Time, seq uint32) bool {
	e.Samples++
	if e.flags&estStarted == 0 {
		e.baseSeq = seq
	}
	updated, regressed := e.w.observe(&e.flags, t, seq)
	if regressed {
		e.OOO++
	}
	return updated
}

// Rate returns the latest estimate and when it was made.
func (e *RateEstimator) Rate() (units.Rate, units.Time, bool) {
	if e.flags&estHaveRate == 0 {
		return 0, 0, false
	}
	return e.w.rate, e.w.winT, true
}

// Bits of the flags byte that RateEstimator and FlowState each keep.
const (
	estStarted  uint8 = 1 << iota // the first sample has opened a window
	estHaveRate                   // some window has closed with a rate
	extRtx                        // the record is an extRecord holding a RetransmitEstimator
	extPkt                        // the record is an extRecord holding a PacketSeqEstimator
	isMouse                       // the record is a mouseRecord
)

// rateWindow is the burst-clustering estimator's state: what
// RateEstimator and every TCP flow record keep, and all a sample reads
// or writes of it. Sequence numbers are 64-bit extensions of the
// wire's 32-bit ones — lastSeq starts at the first sample's number and
// grows by each wrap-safe 32-bit delta — so every byte count the
// estimator needs is a difference and no base is stored.
type rateWindow struct {
	lastSeq int64      // extended sequence number of the newest in-order sample
	lastT   units.Time // when that sample was taken
	winSeq  int64      // extended sequence number where the window opened
	winT    units.Time // when the window opened: with time non-decreasing, when the rate was made
	rate    units.Rate
}

// observe is the one estimator body. It folds in the sample (t, seq),
// with flags holding the estStarted and estHaveRate bits. updated
// reports that the sample closed a window with a new rate; regressed,
// that it was ignored because its sequence number went backwards.
func (w *rateWindow) observe(flags *uint8, t units.Time, seq uint32) (updated, regressed bool) {
	if *flags&estStarted == 0 {
		*flags |= estStarted
		w.lastSeq, w.lastT = int64(seq), t
		w.winSeq, w.winT = int64(seq), t
		return false, false
	}
	// Wrap-safe 32-bit delta against the latest in-order sample.
	delta := int64(int32(seq - uint32(w.lastSeq)))
	if delta < 0 {
		return false, true
	}
	off := w.lastSeq + delta
	if t.Sub(w.lastT) >= MinGap || t.Sub(w.winT) >= MaxBurst {
		if dur := t.Sub(w.winT); dur > 0 {
			w.rate = units.RateOf(off-w.winSeq, dur)
			*flags |= estHaveRate
			updated = true
		}
		w.winSeq, w.winT = off, t
	}
	w.lastSeq, w.lastT = off, t
	return updated, false
}

// FlowState is the collector's NetFlow-like record for one flow.
//
// It is laid out for the sample path. A sample of a resident flow reads
// or writes fields in the first 128 bytes only; what lies past them is
// written at insert. It opens with the header, Key to routeEpoch: the
// key for the table's compare, and what the recency list, the port
// lists and the link accounting read. A mouse (mouseRecord) has the
// same header at the same offsets, so a *FlowState that points at a
// mouse reads its header like any other record's. LastSeen, counted,
// next, outPort and portSlot — what retireStale reads of a flow going
// stale — share the first 64-byte line.
//
// A record holds no Go pointer. Its links to other records are table
// refs (flowtable.go), and an extension estimator lives in the record's
// own slab, past the record (extRecord), so the slabs are memory the
// garbage collector never scans. footprint_test.go pins the size, the
// offsets, the slab fit and the absence of pointers.
type FlowState struct {
	Key    packet.FlowKey
	DstMAC packet.MAC // latest routing label seen (changes on reroute)

	// flags holds the estimator's bits, which extension the record
	// carries, and whether the record is a mouse. It fits in the padding
	// DstMAC leaves before the next word.
	flags uint8

	LastSeen units.Time

	// counted is what the record currently adds to the collector's
	// portUtil[outPort]: its rate while it is on a port list, fresh and
	// has an estimate, otherwise 0 (always 0 for a mouse).
	counted units.Rate

	// self is the record's own table ref, 0 while it is free-listed: a
	// record is live exactly when self != 0. FlowTable stamps it. prev
	// and next thread the record onto the collector's recency list:
	// every live flow, oldest LastSeen first. Each is the neighbour's
	// ref; next is 0 at the newest end, prev is 0 (the table's list
	// head) at the oldest.
	self, prev, next uint32

	// outPort is the cached output-port mapping, -1 unknown. portSlot is
	// 1 + the record's index in the collector's portFlows[outPort] (0 =
	// on no port list), so leaving a list is a swap-remove, not a search.
	outPort  int32
	portSlot int32

	// routeEpoch is the routing epoch outPort was resolved under, as
	// stamped by remapFlowAt from the resolver's answer. A mismatch
	// with the collector's synced epoch re-resolves on the next
	// sample; 0 throughout when no RouteResolver is installed.
	routeEpoch uint64

	SampledPackets int64
	SampledBytes   int64

	// est is the sequence-number estimator's state (TCP flows; UDP flows
	// estimate through their PacketSeqEstimator).
	est rateWindow

	FirstSeen units.Time

	_ uint64 // a record fills whole 16-byte ref units
}

// mouseRecord is the probationary record of a TCP flow sampled once:
// FlowState's header and the one sample's sequence number and wire
// length. Under scan traffic nearly every flow is one, so it costs 80
// bytes where a FlowState costs 144. The flow's second sample, a
// Collector.Flow query or a Fold of its key promotes it to a FlowState
// that takes its place in the table, the recency list and its port
// list (Collector.promote).
//
// A mouse travels as a *FlowState whose flags carry isMouse: through the
// table's lookups, the recency list and the port lists. Only the header
// may be read or written through such a pointer. Rate, Rtx, Pkt and
// OutPort are safe, as they test flags before reading past it; nothing
// else outside the header is.
//
// The header is spelled out here rather than shared as an embedded
// struct: each field reached through an embedded struct costs the
// inliner one more node per selector, which puts touch, run once per
// sample, past its budget. footprint_test.go pins that every header
// field sits at the same offset in both types.
type mouseRecord struct {
	Key              packet.FlowKey
	DstMAC           packet.MAC
	flags            uint8
	LastSeen         units.Time
	counted          units.Rate
	self, prev, next uint32
	outPort          int32
	portSlot         int32
	routeEpoch       uint64

	seq     uint32
	wireLen uint32
}

// asMouse returns the mouse record a *FlowState with isMouse points at.
func asMouse(f *FlowState) *mouseRecord { return (*mouseRecord)(unsafe.Pointer(f)) }

// extRecord is the record of a flow with an extension estimator: a
// FlowState and, past it, the estimator flags names, a
// RetransmitEstimator or a PacketSeqEstimator. Both are pointer-free, so
// ext is plain words. Extension records fill slabs of their own, so
// Rtx and Pkt reach the estimator from the record alone.
type extRecord struct {
	FlowState
	ext [extWords]uint64
}

// extWords is the extension estimators' common size in words.
const extWords = (max(unsafe.Sizeof(RetransmitEstimator{}), unsafe.Sizeof(PacketSeqEstimator{})) + 7) / 8

// expand writes into f the full record m stands for: the header with
// isMouse cleared, one sample, and the estimator state that sample
// leaves — exactly what a FlowState fed the same sample would hold.
func (m *mouseRecord) expand(f *FlowState) {
	*f = FlowState{
		Key: m.Key, DstMAC: m.DstMAC, flags: m.flags &^ isMouse,
		LastSeen: m.LastSeen, counted: m.counted, self: m.self, prev: m.prev, next: m.next,
		outPort: m.outPort, portSlot: m.portSlot, routeEpoch: m.routeEpoch,
		SampledPackets: 1,
		SampledBytes:   int64(m.wireLen),
		FirstSeen:      m.LastSeen,
	}
	f.est.observe(&f.flags, m.LastSeen, m.seq)
}

// Rate returns the flow's latest throughput estimate. A mouse has none.
// A flow whose sequence numbers count packets has the one the collector
// stored from its PacketSeqEstimator at its latest sample.
func (f *FlowState) Rate() (units.Rate, bool) {
	if f.flags&isMouse != 0 {
		return 0, false
	}
	return f.est.rate, f.flags&estHaveRate != 0
}

// Rtx returns the flow's retransmission-rate estimator (§3.2.2
// extension), or nil when retransmission tracking is off. The estimator
// lies past the record in its slab, so it is reached only through the
// table's own record, never through a copy of it.
func (f *FlowState) Rtx() *RetransmitEstimator {
	if f.flags&extRtx == 0 {
		return nil
	}
	return (*RetransmitEstimator)(unsafe.Pointer(&(*extRecord)(unsafe.Pointer(f)).ext))
}

// Pkt returns the throughput estimator of a flow whose sequence numbers
// count packets (UDP with an application counter); nil for TCP flows.
// Like Rtx, it reads the table's own record only.
func (f *FlowState) Pkt() *PacketSeqEstimator {
	if f.flags&extPkt == 0 {
		return nil
	}
	return (*PacketSeqEstimator)(unsafe.Pointer(&(*extRecord)(unsafe.Pointer(f)).ext))
}

// RetransmitRate returns the inferred retransmission rate, when tracking
// is enabled and enough samples exist.
func (f *FlowState) RetransmitRate() (units.Rate, bool) {
	if r := f.Rtx(); r != nil {
		return r.Rate()
	}
	return 0, false
}

// OutPort returns the flow's egress port at this switch (-1 unknown).
func (f *FlowState) OutPort() int { return int(f.outPort) }
