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
type RateEstimator struct {
	MinGap   units.Duration
	MaxBurst units.Duration

	started  bool
	baseSeq  uint32
	lastSeq  int64 // relative 64-bit stream offset of the latest sample
	lastT    units.Time
	winSeq   int64
	winT     units.Time
	rate     units.Rate
	rateAt   units.Time
	haveRate bool

	// OOO counts samples ignored because their sequence number regressed
	// (reordering or retransmission, indistinguishable at the collector;
	// the paper ignores both for estimation).
	OOO int64
	// Samples counts sequence-carrying samples folded in.
	Samples int64
}

// Estimator defaults from §3.2.2 and footnote 2.
const (
	DefaultMinGap   = 200 * units.Microsecond
	DefaultMaxBurst = 700 * units.Microsecond
)

// NewRateEstimator returns an estimator with the paper's constants.
func NewRateEstimator() *RateEstimator {
	return &RateEstimator{MinGap: DefaultMinGap, MaxBurst: DefaultMaxBurst}
}

// Observe folds in one sample with sequence number seq taken at time t.
// It returns true when the sample closed an estimation window and updated
// the rate.
func (e *RateEstimator) Observe(t units.Time, seq uint32) bool {
	e.Samples++
	if !e.started {
		e.started = true
		e.baseSeq = seq
		e.lastSeq = 0
		e.lastT = t
		e.winSeq = 0
		e.winT = t
		return false
	}
	// Relative offset via wrap-safe 32-bit delta against the latest
	// in-order sample.
	delta := int64(int32(seq - uint32(uint64(e.lastSeq)+uint64(e.baseSeq))))
	if delta < 0 {
		e.OOO++
		return false
	}
	off := e.lastSeq + delta

	updated := false
	gap := t.Sub(e.lastT)
	if gap >= e.MinGap || t.Sub(e.winT) >= e.MaxBurst {
		dur := t.Sub(e.winT)
		if dur > 0 {
			e.rate = units.RateOf(off-e.winSeq, dur)
			e.rateAt = t
			e.haveRate = true
			updated = true
		}
		e.winSeq = off
		e.winT = t
	}
	e.lastSeq = off
	e.lastT = t
	return updated
}

// Rate returns the latest estimate and when it was made.
func (e *RateEstimator) Rate() (units.Rate, units.Time, bool) {
	return e.rate, e.rateAt, e.haveRate
}

// StreamBytes returns the relative stream offset of the newest sample —
// the total bytes the flow has pushed past this switch since first seen,
// regardless of how few samples survived mirroring.
func (e *RateEstimator) StreamBytes() int64 { return e.lastSeq }

// FlowState is the collector's NetFlow-like record for one flow.
type FlowState struct {
	Key    packet.FlowKey
	DstMAC packet.MAC // latest routing label seen (changes on reroute)

	FirstSeen units.Time
	LastSeen  units.Time

	SampledPackets int64
	SampledBytes   int64

	Est RateEstimator

	// Rtx, when retransmission tracking is enabled, infers the flow's
	// retransmission rate from duplicate sequence numbers (§3.2.2
	// extension).
	Rtx *RetransmitEstimator

	// Pkt estimates throughput for flows whose sequence numbers count
	// packets (UDP with an application counter); nil for TCP flows.
	Pkt *PacketSeqEstimator

	outPort int // cached output-port mapping, -1 unknown

	// routeEpoch is the routing epoch outPort was resolved under, as
	// stamped by remapFlowAt from the resolver's answer. A mismatch
	// with the collector's synced epoch re-resolves on the next
	// sample; 0 throughout when no RouteResolver is installed.
	routeEpoch uint64

	// portSlot is 1 + the record's index in the collector's
	// portFlows[outPort] (0 = on no port list), so leaving a list is a
	// swap-remove, not a search.
	portSlot int32

	// prev and next thread the record onto the collector's recency list:
	// every live flow, oldest LastSeen at the head.
	prev, next *FlowState

	// counted is what the record currently adds to the collector's
	// portUtil[outPort]: its rate while it is on a port list, fresh and
	// has an estimate, otherwise 0.
	counted units.Rate

	// hash caches the record's flow hash so FlowTable.Remove and port
	// remaps relocate it without rehashing; live marks a slab record as
	// present in the table (false = free-listed). Both are maintained
	// by FlowTable.
	hash uint64
	live bool
}

// Rate returns the flow's latest throughput estimate.
func (f *FlowState) Rate() (units.Rate, bool) {
	if f.Pkt != nil {
		r, _, ok := f.Pkt.Rate()
		return r, ok
	}
	r, _, ok := f.Est.Rate()
	return r, ok
}

// RetransmitRate returns the inferred retransmission rate, when tracking
// is enabled and enough samples exist.
func (f *FlowState) RetransmitRate() (units.Rate, bool) {
	if f.Rtx == nil {
		return 0, false
	}
	return f.Rtx.Rate()
}

// OutPort returns the flow's egress port at this switch (-1 unknown).
func (f *FlowState) OutPort() int { return f.outPort }

// RouteEpoch returns the routing epoch the flow's egress port was
// resolved under (0 when no RouteResolver is installed). An aggregation
// plane merging reports from several vantage collectors uses it to
// order duplicate reports of the same flow across epoch skew.
func (f *FlowState) RouteEpoch() uint64 { return f.routeEpoch }
