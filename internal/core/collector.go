package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"

	"planck/internal/obs"
	"planck/internal/obs/trace"
	"planck/internal/packet"
	"planck/internal/units"
)

// Config tunes a Collector. Zero values take paper defaults.
type Config struct {
	// SwitchName labels the monitored switch in events and dumps.
	SwitchName string
	// NumPorts is the monitored switch's port count.
	NumPorts int
	// LinkRate is the capacity of each egress link.
	LinkRate units.Rate
	// UtilThreshold is the fraction of LinkRate at which a link counts as
	// congested and an event fires.
	UtilThreshold float64
	// FlowFreshness bounds how stale a flow's estimate may be and still
	// contribute to link utilization.
	FlowFreshness units.Duration
	// EventCooldown rate-limits congestion events per link.
	EventCooldown units.Duration
	// RingPackets sizes the vantage-point sample ring (0 disables).
	RingPackets int
	// TrackRetransmits enables the §3.2.2 extension inferring per-flow
	// retransmission rates from duplicate sequence numbers.
	TrackRetransmits bool
	// UDPSeqEnabled gates §3.2.2's generalization to UDP: when true, the
	// collector treats the first four payload bytes of each UDP datagram
	// as a big-endian application packet counter and estimates UDP flow
	// throughput from it.
	UDPSeqEnabled bool
	// Metrics, when non-nil, registers the collector's self-monitoring
	// instruments (counters, flow-table gauge, per-stage pipeline
	// histograms) into the registry, labelled with SwitchName, and
	// enables stage timing, which reads the monotonic clock ~6 times per
	// sample and never affects simulation determinism. With a nil
	// registry the counters still run (readable through Stats) but cost
	// only a few uncontended atomic adds per sample and zero allocations.
	Metrics *obs.Registry
	// Tracer, when non-nil, assigns control-loop trace IDs to emitted
	// congestion events and opens causal spans for them
	// (internal/obs/trace). The sample hot path never touches it; the
	// only ingest-reachable probe is one branch plus one atomic load in
	// remapFlowAt, which runs on label/epoch changes only.
	Tracer *trace.Tracer
	// Sink, when non-nil, receives one Report callback per ingested
	// sequence-carrying sample — the seam a vantage collector uses to
	// feed a federated aggregation plane (internal/agg), in-process or
	// across a wire transport (internal/vantagelink). The sink is
	// called synchronously on the ingest goroutine after the sample's
	// flow record is fully updated; detection then typically lives at
	// the plane, with no local Subscribe, so events fire exactly once
	// network-wide.
	Sink AggregationSink
	// Vantage identifies this collector within a fleet; it stamps the
	// Vantage field of locally emitted congestion events. Zero for a
	// single-collector deployment.
	Vantage int
}

// FlowReport is the sink-visible snapshot of one ingested sample: the
// exact fields the aggregation plane folds into its merged view, as a
// flat value that can cross a process boundary. RateUpdated reports
// whether the sample closed an estimation window, i.e. exactly the
// condition under which the collector itself would run congestion
// detection.
type FlowReport struct {
	Time   units.Time
	Key    packet.FlowKey
	DstMAC packet.MAC
	// OutPort is the flow's egress port at the vantage's switch
	// (-1 unknown).
	OutPort int
	// Epoch is the routing epoch OutPort was resolved under.
	Epoch uint64
	Rate  units.Rate
	// RateOK reports whether Rate carries a usable estimate.
	RateOK      bool
	RateUpdated bool
}

// AggregationSink observes every ingested sample of a vantage-scoped
// collector. rep points at a per-collector scratch reused by the next
// sample — copy it to retain it past the call.
type AggregationSink interface {
	Report(rep *FlowReport)
}

// BatchEndSink is an optional AggregationSink extension. When the
// configured Sink implements it, the collector calls BatchEnd after
// every Ingest or IngestBatch call — the natural flush point for sinks
// that batch reports into wire frames (internal/vantagelink) instead
// of folding them in synchronously.
type BatchEndSink interface {
	BatchEnd(now units.Time)
}

// WithDefaults returns a copy of c with every zero tuning field
// replaced by its paper default — the exact thresholds a collector
// built from c will run with. An aggregation plane federating several
// such collectors derives its own thresholds from this so detection at
// the plane is cooldown- and threshold-coherent with the fleet.
func (c Config) WithDefaults() Config {
	c.fillDefaults()
	return c
}

func (c *Config) fillDefaults() {
	if c.UtilThreshold == 0 {
		c.UtilThreshold = 0.90
	}
	if c.FlowFreshness == 0 {
		c.FlowFreshness = 5 * units.Millisecond
	}
	if c.EventCooldown == 0 {
		c.EventCooldown = 250 * units.Microsecond
	}
}

// FlowInfo is a point-in-time flow snapshot included in events and query
// responses.
type FlowInfo struct {
	Key    packet.FlowKey
	DstMAC packet.MAC
	Rate   units.Rate
	// OutPort is the flow's egress port at this switch.
	OutPort int
}

// BoundaryKind classifies flow-boundary observations.
type BoundaryKind uint8

// Flow boundaries (§9.2: SYN/FIN/RST packets "mark the beginning and end
// of flows" and sampling them quickly gives "faster knowledge of these
// network events").
const (
	FlowStart BoundaryKind = iota // SYN without ACK
	FlowEnd                       // FIN or RST
)

// String implements fmt.Stringer.
func (k BoundaryKind) String() string {
	if k == FlowEnd {
		return "end"
	}
	return "start"
}

// CongestionEvent reports a link whose estimated utilization crossed the
// configured threshold. Flows carries the context annotations §3.3
// describes: the flows using the link and their current rates.
type CongestionEvent struct {
	Time       units.Time
	SwitchName string
	Port       int
	Util       units.Rate
	Capacity   units.Rate
	// Flows is borrowed from the emitting collector, as ingest frames
	// are: it is valid until the subscriber returns, and the collector
	// refills it for its next event. A subscriber that keeps the event
	// past its return keeps slices.Clone(ev.Flows).
	Flows []FlowInfo
	// ID is the control-loop trace ID, monotonically assigned by the
	// configured Tracer at emit time. Zero when tracing is off.
	ID uint64
	// Epoch is the routing epoch the triggering flow's egress port was
	// resolved under — event provenance for cross-collector merging
	// (zero without a RouteResolver).
	Epoch uint64
	// Vantage identifies the emitting collector within a fleet
	// (Config.Vantage, or the aggregation plane's vantage id for
	// plane-emitted events). Zero for a single-collector deployment.
	Vantage int
}

// Stats aggregates collector counters. It is a snapshot view over the
// collector's obs instruments, kept for embedders that want a plain
// struct instead of a metrics registry.
type Stats struct {
	Samples        int64 // frames ingested
	DecodeErrors   int64
	NonTCP         int64 // frames without a usable sequence stream
	Flows          int   // live flow-table entries
	RateUpdates    int64
	EventsEmitted  int64
	Suppressed     int64 // congestion candidates inside their link's cooldown
	OutOfOrder     int64 // sequence regressions ignored by estimators
	UnmappedOutput int64 // samples whose egress port could not be inferred
}

// Collector is one monitor port's processing pipeline.
type Collector struct {
	cfg Config

	// resolver is the routing state ports are inferred from, nil until
	// SetPortMapper (every flow then stays unmapped at port -1).
	// routeEpoch is the epoch the collector is synced to; flows stamped
	// with a different epoch re-resolve on their next sample. epochRef
	// is the resolver's epoch counter: syncRoutes polls it with one
	// inlined atomic load and skips the virtual Refresh call entirely
	// while no reroute has been committed.
	resolver   RouteResolver
	epochRef   *atomic.Uint64
	routeEpoch uint64

	dec   packet.Decoded
	flows FlowTable

	// portFlows[p] holds flows currently mapped to egress port p, each
	// at index FlowState.portSlot-1. portUtil[p] is the running sum of
	// their counted contributions — exactly what a scan of portFlows[p]
	// for fresh, rate-bearing flows would add up, kept current on every
	// event that changes a term (see account). Bit i of portFresh[p] is
	// set exactly when portFlows[p][i] is within FlowFreshness of now,
	// and no bit at or past len(portFlows[p]) is: FlowsOnPort's answer,
	// kept current wherever a flow changes slot or freshness. The lists
	// hold table refs, so the garbage collector never scans them.
	portFlows [][]uint32
	portUtil  []units.Rate
	portFresh [][]uint64

	// The recency list threads every live flow in LastSeen order: a
	// sample moves its flow to newest, and timestamps never go backwards,
	// so the order needs no sort. Its head is the table's list head
	// (FlowTable.head), whose next is the oldest flow; newest is its
	// tail, nil when the list is empty. fresh is the ref of the oldest
	// flow still within FlowFreshness of now (0 when none is);
	// everything before it is stale and counts for nothing. freshSeen is
	// a lower bound on that flow's LastSeen (never while fresh is 0), so
	// a sample learns whether a flow may have gone stale without reading
	// a record: moving the fresh flow away leaves the bound behind, and
	// the next retireStale raises it again.
	newest    *FlowState
	fresh     uint32
	freshSeen units.Time

	lastEvent []units.Time

	// evFlows is the array CheckCongestion lends its events as Flows.
	// It is taken while the subscribers run and put back after, so an
	// event a subscriber makes this collector emit fills one of its own.
	evFlows []FlowInfo

	subs     []func(ev CongestionEvent)
	boundary []func(t units.Time, key packet.FlowKey, kind BoundaryKind)

	ring *Ring

	now units.Time

	// sinkRep is the scratch FlowReport handed to cfg.Sink; sinkBatch
	// is cfg.Sink's optional batch-end face, asserted once at New.
	sinkRep   FlowReport
	sinkBatch BatchEndSink

	met collectorMetrics
}

// New creates a collector.
func New(cfg Config) *Collector {
	cfg.fillDefaults()
	c := &Collector{cfg: cfg, freshSeen: never}
	if cfg.Sink != nil {
		c.sinkBatch, _ = cfg.Sink.(BatchEndSink)
	}
	c.met.init(cfg.Metrics != nil)
	c.flows.probe = c.met.probeLen
	if cfg.Metrics != nil {
		c.register(cfg.Metrics)
	}
	if cfg.NumPorts > 0 {
		c.portFlows = make([][]uint32, cfg.NumPorts)
		c.portUtil = make([]units.Rate, cfg.NumPorts)
		c.portFresh = make([][]uint64, cfg.NumPorts)
		c.lastEvent = make([]units.Time, cfg.NumPorts)
		for i := range c.lastEvent {
			c.lastEvent[i] = -1 << 62
		}
	}
	if cfg.RingPackets > 0 {
		c.ring = NewRing(cfg.RingPackets)
	}
	return c
}

// SetPortMapper installs (or replaces, after a route change) the routing
// state used for port inference; nil removes it. Live flows are
// re-resolved immediately: when PlanckTE reroutes a flow (§4) the
// controller's new routing state must move the flow's contribution to
// its new egress link even if no further sample arrives before the next
// utilization query.
func (c *Collector) SetPortMapper(r RouteResolver) {
	c.resolver = r
	c.epochRef = nil
	if r != nil {
		c.routeEpoch = r.Refresh()
		c.epochRef = r.EpochRef()
	}
	c.remapAll()
}

// syncRoutes pins the current routing epoch (one atomic load) and, on
// an epoch change, re-resolves every live flow as of its last sample
// time. Resolving at LastSeen — never at c.now — is what keeps a
// mid-batch reroute equivalent to one at a batch boundary: LastSeen is
// a per-flow property of the stream, while "now" depends on where the
// batch ended. Called once per Ingest/IngestBatch, never per sample.
func (c *Collector) syncRoutes() {
	// No-reroute fast path: the publisher's bare epoch counter, read
	// inline. The slow path (a virtual Refresh re-pinning the history)
	// only runs when the counter has actually moved — the counter is
	// stored after the history it names, so a changed read here
	// guarantees Refresh sees that commit. Keeping the slow path in its
	// own function keeps this check within the inlining budget, so the
	// per-Ingest cost is one atomic load with no call.
	if p := c.epochRef; p == nil || p.Load() == c.routeEpoch {
		return
	}
	c.syncRoutesSlow()
}

func (c *Collector) syncRoutesSlow() {
	if e := c.resolver.Refresh(); e != c.routeEpoch {
		c.routeEpoch = e
		c.remapAll()
	}
}

// remapAll re-resolves every live flow as of its last sample, mice
// included, oldest sample first: the order Flows visits them in. The
// recency list is the one order a flow's record kind does not change,
// and re-resolving moves flows between port lists but never along it.
func (c *Collector) remapAll() {
	for f := c.oldest(); f != nil; f = c.flows.at(f.next) {
		c.remapFlowAt(f.LastSeen, f)
	}
}

// Subscribe registers fn for congestion events. fn runs synchronously,
// inside the ingest or fold that fired the event, and borrows its Flows:
// see CongestionEvent.Flows.
func (c *Collector) Subscribe(fn func(ev CongestionEvent)) { c.subs = append(c.subs, fn) }

// SubscribeFlowBoundaries registers fn for flow start/end observations —
// a sampled SYN (without ACK) or FIN/RST. How quickly these arrive under
// load depends on the switch's sampling policy; §9.2's preferential
// sampling exists precisely to protect them.
func (c *Collector) SubscribeFlowBoundaries(fn func(t units.Time, key packet.FlowKey, kind BoundaryKind)) {
	c.boundary = append(c.boundary, fn)
}

// Stats returns a snapshot of the collector's counters. OutOfOrder is
// the same monotonic count the registry's out_of_order_total counter
// exposes: it never shrinks, even when idle flows are expired. (It
// formerly re-aggregated live estimators on every call — an
// O(live-flows) scan whose result also dipped on expiry.)
func (c *Collector) Stats() Stats {
	return Stats{
		Samples:      c.met.samples.Value(),
		DecodeErrors: c.met.decodeErrors.Value(),
		NonTCP:       c.met.nonTCP.Value(),
		// The flow count reads the gauge, not the table: every Ingest,
		// IngestBatch and ExpireFlows call leaves it current, and unlike
		// FlowTable.Len it is safe against a concurrent snapshot while the
		// owning goroutine ingests.
		Flows:          int(c.met.flowTableSize.Value()),
		RateUpdates:    c.met.rateUpdates.Value(),
		EventsEmitted:  c.met.events.Value(),
		Suppressed:     c.met.suppressed.Value(),
		OutOfOrder:     c.met.outOfOrder.Value(),
		UnmappedOutput: c.met.unmapped.Value(),
	}
}

// BatchError reports per-frame failures inside an IngestBatch call.
// Processing does not stop at a failed frame — the remaining frames are
// ingested, exactly as a caller looping over Ingest would continue —
// so the error carries the failure count plus the first failure for
// diagnosis.
type BatchError struct {
	// Failed is how many frames of the batch returned an error.
	Failed int
	// Index is the batch index of the first failing frame.
	Index int
	// Err is the first failure.
	Err error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("core: %d of batch failed (first at %d): %v", e.Failed, e.Index, e.Err)
}

// Unwrap exposes the first per-frame failure.
func (e *BatchError) Unwrap() error { return e.Err }

// Ingest processes one sampled frame captured at time t. Timestamps must
// be non-decreasing. The frame buffer is only borrowed for the call.
func (c *Collector) Ingest(t units.Time, frame []byte) error {
	if t < c.now {
		return fmt.Errorf("core: timestamp went backwards: %v after %v", t, c.now)
	}
	c.syncRoutes()
	c.met.samples.IncRelaxed()
	err := c.ingest(t, frame)
	c.publishFlows()
	if c.sinkBatch != nil {
		c.sinkBatch.BatchEnd(t)
	}
	return err
}

// IngestBatch processes a batch of sampled frames, ts[i] stamping
// frames[i]. It computes exactly what the equivalent Ingest loop
// computes, amortizing the per-sample accounting over the batch when
// the batch's timestamps are non-decreasing (per-frame failures do not
// stop the batch; they are summarized in a *BatchError). len(ts) must
// equal len(frames); the frame buffers are only borrowed for the call.
func (c *Collector) IngestBatch(ts []units.Time, frames [][]byte) error {
	n := len(ts)
	if len(frames) < n {
		n = len(frames)
	}
	if n == 0 {
		return nil
	}
	c.syncRoutes()
	if h := c.met.batchSamples; h != nil {
		h.Observe(int64(n))
	}
	mono := ts[0] >= c.now
	for i := 1; mono && i < n; i++ {
		mono = ts[i] >= ts[i-1]
	}
	if mono {
		// No frame can hit the timestamp check, so the whole batch counts
		// as samples up front with one counter write.
		c.met.samples.AddRelaxed(int64(n))
	}
	var be *BatchError
	for i := 0; i < n; i++ {
		var err error
		if mono {
			err = c.ingest(ts[i], frames[i])
		} else {
			// The slow path goes through Ingest, which fires BatchEnd itself.
			err = c.Ingest(ts[i], frames[i])
		}
		if err != nil {
			if be == nil {
				be = &BatchError{Index: i, Err: err}
			}
			be.Failed++
		}
	}
	c.publishFlows()
	if mono && c.sinkBatch != nil {
		c.sinkBatch.BatchEnd(c.now)
	}
	if be != nil {
		return be
	}
	return nil
}

// ingest is the hot path shared by Ingest and IngestBatch: the
// timestamp has been validated and the sample counted by the caller.
func (c *Collector) ingest(t units.Time, frame []byte) error {
	c.now = t
	// Every frame moves the clock, whether or not it reaches the flow
	// table, so staleness is settled here.
	if t.Sub(c.freshSeen) > c.cfg.FlowFreshness {
		c.retireStale()
	}
	if c.ring != nil {
		c.ring.Push(t, frame)
	}
	timed := c.met.timed
	var start, t0 int64
	if timed {
		start = obs.Nanos()
		t0 = start
	}
	// The fast lane handles the dominant frame shape in one flat pass;
	// everything else (ARP, UDP, options, truncation, errors) takes the
	// full per-layer decoder, which produces identical results.
	if !c.dec.DecodeTCPFast(frame) {
		if err := c.dec.Decode(frame); err != nil {
			if timed {
				now := obs.Nanos()
				c.met.stageDecode.Observe(now - t0)
				c.met.ingest.Observe(now - start)
			}
			// ARP and other non-IP traffic still lands in the ring; it just
			// carries no sequence stream to estimate from.
			if c.dec.Has(packet.LayerARP) {
				c.met.nonTCP.IncRelaxed()
				return nil
			}
			c.met.decodeErrors.IncRelaxed()
			return err
		}
	}
	if timed {
		now := obs.Nanos()
		c.met.stageDecode.Observe(now - t0)
		t0 = now
	}
	if !c.dec.Has(packet.LayerTCP) {
		c.met.nonTCP.IncRelaxed()
		if c.cfg.UDPSeqEnabled && c.dec.Has(packet.LayerUDP) {
			c.ingestUDP(t, frame)
		}
		if timed {
			c.met.ingest.Observe(obs.Nanos() - start)
		}
		return nil
	}
	// Probe scalars. The src‖dst word loads from the frame, not a key
	// copy: the frame bytes are read-only and cache-hot after Decode, so
	// the load never stalls on store forwarding (a freshly assembled
	// FlowKey read back word-wide does — see packet.FlowKey).
	// NativeEndian to match keyFirstWord's in-memory read of the same
	// bytes in the resident record.
	a := binary.NativeEndian.Uint64(frame[packet.EthernetHeaderLen+12 : packet.EthernetHeaderLen+20])
	sp, dp := c.dec.TCP.SrcPort, c.dec.TCP.DstPort
	// Equivalent to HashFlowKey of the 5-tuple, spelled out because
	// that call exceeds the inlining budget while mixFlowHash fits.
	h := mixFlowHash(a, uint64(sp)<<24|uint64(dp)<<8|uint64(c.dec.IP.Protocol))
	// LookupScalar probes without materialising a FlowKey; an insert
	// builds one. A new flow starts as a mouse unless it needs an
	// extension from its first sample; a mouse's second sample promotes
	// it, so what follows only ever sees a full record.
	f := c.flows.LookupScalar(h, a, sp, dp, c.dec.IP.Protocol)
	if f == nil {
		k := packet.FlowKey{
			SrcIP: c.dec.IP.Src, DstIP: c.dec.IP.Dst,
			SrcPort: sp, DstPort: dp,
			Proto: c.dec.IP.Protocol,
		}
		if !c.cfg.TrackRetransmits {
			c.ingestMouse(t, h, k, start, t0)
			return nil
		}
		f = c.flows.insert(h, k, extRtx)
		f.FirstSeen, f.LastSeen = t, t
		f.outPort = -1
		c.link(f)
	} else if f.flags&isMouse != 0 {
		f = c.promote(h, f)
	}
	// A sample reviving a stale, listed flow marks it fresh. The test
	// reads the LastSeen about to be overwritten, so a sample of a flow
	// that is already fresh pays one compare.
	if t.Sub(f.LastSeen) > c.cfg.FlowFreshness && f.portSlot != 0 {
		c.setFresh(f)
	}
	f.LastSeen = t
	if f != c.newest {
		c.touch(f)
	}
	c.holdFresh(f)
	f.SampledPackets++
	f.SampledBytes += int64(c.dec.WireLen)

	if f.DstMAC != c.dec.Eth.Dst || f.outPort < 0 || f.routeEpoch != c.routeEpoch {
		f.DstMAC = c.dec.Eth.Dst
		// Without routing state remapFlowAt is a no-op (the flow stays
		// unmapped at outPort -1), so routeless collectors skip the call.
		if c.resolver != nil {
			c.remapFlowAt(t, f)
		}
	}
	if timed {
		now := obs.Nanos()
		c.met.stageFlowTable.Observe(now - t0)
		t0 = now
	}

	if len(c.boundary) > 0 {
		c.noteBoundary(t, f.Key)
	}

	// Sequence-based estimation uses the left edge of the segment's
	// payload; pure ACKs advance nothing and naturally estimate ~0.
	updated, regressed := f.est.observe(&f.flags, t, c.dec.TCP.Seq)
	if r := f.Rtx(); r != nil {
		// Only differences of the stream offset matter to it, so the
		// extended sequence number serves.
		r.Observe(t, c.dec.PayloadLen, regressed, f.est.lastSeq)
	}
	if regressed {
		c.met.outOfOrder.IncRelaxed()
	}
	if timed {
		c.met.stageEstimate.Observe(obs.Nanos() - t0)
	}
	c.account(f)
	if updated {
		c.met.rateUpdates.IncRelaxed()
		c.CheckCongestion(t, f, c.cfg.Vantage)
	}
	if c.cfg.Sink != nil {
		c.sinkReport(t, f, updated)
	}
	if timed {
		c.met.ingest.Observe(obs.Nanos() - start)
	}
	return nil
}

// ingestMouse is ingest's tail for the first sample of a new TCP flow:
// it files the flow as a mouse holding the sample, and does what the
// full path does for a first sample — recency, label and port, flow
// boundary, sink report — which opens an estimation window, counts for
// nothing on the link and closes no window, so no congestion check.
func (c *Collector) ingestMouse(t units.Time, h uint64, k packet.FlowKey, start, t0 int64) {
	f := c.flows.insert(h, k, isMouse)
	m := asMouse(f)
	m.seq, m.wireLen = c.dec.TCP.Seq, uint32(c.dec.WireLen)
	f.outPort = -1
	f.LastSeen = t
	c.link(f)
	f.DstMAC = c.dec.Eth.Dst
	if c.resolver != nil {
		c.remapFlowAt(t, f)
	}
	timed := c.met.timed
	if timed {
		now := obs.Nanos()
		c.met.stageFlowTable.Observe(now - t0)
		t0 = now
	}
	if len(c.boundary) > 0 {
		c.noteBoundary(t, k)
	}
	if timed {
		c.met.stageEstimate.Observe(obs.Nanos() - t0)
	}
	if c.cfg.Sink != nil {
		c.sinkReport(t, f, false)
	}
	if timed {
		c.met.ingest.Observe(obs.Nanos() - start)
	}
}

// promote turns mouse m, whose key hashes to h, into a full record that
// takes its place everywhere: its table slot, its recency position, and
// its port-list entry with that entry's freshness bit. No order the
// collector keeps or reports changes, and nothing is recounted: a mouse
// counts for nothing, and so does a one-sample full record.
func (c *Collector) promote(h uint64, m *FlowState) *FlowState {
	mref := m.self
	f := c.flows.promote(h, m)
	c.flows.record(f.prev).next = f.self
	if f.next != 0 {
		c.flows.record(f.next).prev = f.self
	} else {
		c.newest = f
	}
	if c.fresh == mref {
		c.fresh = f.self
	}
	if f.portSlot != 0 {
		c.portFlows[f.outPort][f.portSlot-1] = f.self
	}
	return f
}

// noteBoundary tells the boundary subscribers about a sampled SYN
// (without ACK), FIN or RST of flow k.
func (c *Collector) noteBoundary(t units.Time, k packet.FlowKey) {
	flags := c.dec.TCP.Flags
	if flags&packet.TCPSyn != 0 && flags&packet.TCPAck == 0 {
		for _, fn := range c.boundary {
			fn(t, k, FlowStart)
		}
	} else if flags&(packet.TCPFin|packet.TCPRst) != 0 {
		for _, fn := range c.boundary {
			fn(t, k, FlowEnd)
		}
	}
}

// sinkReport fills the scratch FlowReport from f and hands it to the
// configured sink. Kept out of ingest so the sink-less hot path pays
// only the nil check.
func (c *Collector) sinkReport(t units.Time, f *FlowState, rateUpdated bool) {
	rep := &c.sinkRep
	rep.Time = t
	rep.Key = f.Key
	rep.DstMAC = f.DstMAC
	rep.OutPort = int(f.outPort)
	rep.Epoch = f.routeEpoch
	rep.Rate, rep.RateOK = f.Rate()
	rep.RateUpdated = rateUpdated
	c.cfg.Sink.Report(rep)
}

// ingestUDP estimates UDP flow throughput from an application-level
// packet counter embedded in the payload (§3.2.2's generalization).
func (c *Collector) ingestUDP(t units.Time, frame []byte) {
	off := packet.EthernetHeaderLen + c.dec.IP.HeaderLen() + packet.UDPHeaderLen
	if off+4 > len(frame) {
		return
	}
	seq := uint32(frame[off])<<24 | uint32(frame[off+1])<<16 |
		uint32(frame[off+2])<<8 | uint32(frame[off+3])
	key, ok := c.dec.Flow()
	if !ok {
		return
	}
	h := HashFlowKey(key)
	f := c.flows.Lookup(h, key)
	if f == nil {
		f = c.flows.insert(h, key, extPkt)
		f.FirstSeen, f.LastSeen = t, t
		f.outPort = -1
		c.link(f)
	}
	if t.Sub(f.LastSeen) > c.cfg.FlowFreshness && f.portSlot != 0 {
		c.setFresh(f)
	}
	f.LastSeen = t
	if f != c.newest {
		c.touch(f)
	}
	c.holdFresh(f)
	f.SampledPackets++
	f.SampledBytes += int64(c.dec.WireLen)
	if f.DstMAC != c.dec.Eth.Dst || f.outPort < 0 || f.routeEpoch != c.routeEpoch {
		f.DstMAC = c.dec.Eth.Dst
		// Without routing state remapFlowAt is a no-op (the flow stays
		// unmapped at outPort -1), so routeless collectors skip the call.
		if c.resolver != nil {
			c.remapFlowAt(t, f)
		}
	}
	p := f.Pkt()
	updated := p.Observe(t, seq, c.dec.WireLen)
	// The record carries the estimate Rate reads: the mean packet size
	// moves with every sample, so it is refreshed on every one.
	f.est.rate, _, ok = p.Rate()
	f.flags &^= estHaveRate
	if ok {
		f.flags |= estHaveRate
	}
	c.account(f)
	if updated {
		c.met.rateUpdates.IncRelaxed()
		c.CheckCongestion(t, f, c.cfg.Vantage)
	}
	if c.cfg.Sink != nil {
		c.sinkReport(t, f, updated)
	}
}

// remapFlowAt re-resolves the flow's egress port after a label change,
// an unknown port, or a routing-epoch change, attributing the flow to
// the routing state live at time t. A sample timestamped before the
// current epoch's activation resolves through the resolver's history to
// the older epoch and is stamped with it, so a straddling flow keeps
// charging the pre-reroute link until its samples cross the activation
// time — regardless of where batch boundaries fall.
func (c *Collector) remapFlowAt(t units.Time, f *FlowState) {
	newPort := -1
	if r := c.resolver; r != nil {
		p, epoch, ok := r.ResolveOutput(t, f.Key, f.DstMAC)
		f.routeEpoch = epoch
		if c.cfg.Tracer != nil {
			// Convergence probe: one atomic load inside unless a
			// control-loop span is watching for its re-converged route.
			c.cfg.Tracer.NoteResolve(t, f.Key, f.DstMAC, epoch)
		}
		if ok {
			newPort = p
		} else {
			c.met.unmapped.IncRelaxed()
		}
	}
	c.moveTo(f, newPort)
}

// moveTo maps f to egress port, moving it between port lists when the
// port changed. A port the switch does not have leaves f unlisted.
func (c *Collector) moveTo(f *FlowState, port int) {
	if port < 0 || port > math.MaxInt32 {
		port = -1 // not a switch port; the record keeps 32 bits
	}
	if port == int(f.outPort) {
		return
	}
	c.unlist(f)
	f.outPort = int32(port)
	if port >= 0 && port < len(c.portFlows) {
		l := append(c.portFlows[port], f.self)
		c.portFlows[port] = l
		f.portSlot = int32(len(l))
		if i := len(l) - 1; i>>6 == len(c.portFresh[port]) {
			c.portFresh[port] = append(c.portFresh[port], 0)
		}
		if c.now.Sub(f.LastSeen) <= c.cfg.FlowFreshness {
			c.setFresh(f)
		}
		c.account(f)
	}
}

// Fold merges one vantage's report of a flow into the flow's record,
// as ingest merges a sample: the record takes the report's stamp,
// label, routing epoch, rate estimate and egress port, and the link
// accounting follows. It is how an aggregation plane keeps one
// collector per monitored switch fed by the vantages covering it.
//
// Overlapping vantages report the same flow. A report stamped before
// the record's LastSeen, or resolved under an older routing epoch,
// carries nothing the record lacks: Fold refuses it and returns nil.
// Otherwise it returns the record. Time never goes backwards: a report
// stamped behind the collector's clock is folded as of the clock.
func (c *Collector) Fold(rep *FlowReport) *FlowState {
	h := HashFlowKey(rep.Key)
	f, inserted := c.flows.GetOrInsert(h, rep.Key)
	switch {
	case inserted:
		f.outPort = -1
	case rep.Time < f.LastSeen || rep.Epoch < f.routeEpoch:
		return nil
	case f.flags&isMouse != 0:
		f = c.promote(h, f)
	}
	t := rep.Time
	if t < c.now {
		t = c.now
	}
	c.now = t
	if t.Sub(c.freshSeen) > c.cfg.FlowFreshness {
		c.retireStale()
	}
	if inserted {
		f.FirstSeen, f.LastSeen = t, t
		c.link(f)
		c.publishFlows()
	} else {
		if t.Sub(f.LastSeen) > c.cfg.FlowFreshness && f.portSlot != 0 {
			c.setFresh(f)
		}
		f.LastSeen = t
		if f != c.newest {
			c.touch(f)
		}
		c.holdFresh(f)
	}
	f.DstMAC = rep.DstMAC
	f.routeEpoch = rep.Epoch
	f.est.rate = rep.Rate
	f.flags &^= estHaveRate
	if rep.RateOK {
		f.flags |= estHaveRate
	}
	c.moveTo(f, rep.OutPort)
	c.account(f)
	return f
}

// unlist takes f off its port list, if it is on one, and its counted
// contribution out of that port's sum. The list's last flow fills the
// hole, as it always has: list order is the order FlowsOnPort reports.
func (c *Collector) unlist(f *FlowState) {
	if f.portSlot == 0 {
		return
	}
	c.portUtil[f.outPort] -= f.counted
	f.counted = 0
	l := c.portFlows[f.outPort]
	fresh := c.portFresh[f.outPort]
	hole, end := int(f.portSlot-1), len(l)-1
	last := l[end]
	l[hole] = last
	c.flows.record(last).portSlot = f.portSlot
	// The last flow's freshness bit moves with it into the hole.
	if fresh[end>>6]&(1<<(end&63)) != 0 {
		fresh[hole>>6] |= 1 << (hole & 63)
	} else {
		fresh[hole>>6] &^= 1 << (hole & 63)
	}
	fresh[end>>6] &^= 1 << (end & 63)
	c.portFlows[f.outPort] = l[:end]
	f.portSlot = 0
}

// setFresh sets the freshness bit of listed flow f's port slot.
func (c *Collector) setFresh(f *FlowState) {
	i := f.portSlot - 1
	c.portFresh[f.outPort][i>>6] |= 1 << (i & 63)
}

// account brings f's counted contribution, and with it its port's
// running sum, in line with f's current state: its rate while f is on a
// port list, within FlowFreshness of now and has an estimate, else 0.
// Rates are integers, so adding the difference keeps portUtil equal,
// bit for bit, to a fresh sum over the port's flows. Called wherever a
// term of that condition can change for a flow that stays fresh: after
// each sample (which may close a window or revive a stale flow) and
// after a move onto a port list. Going stale is retireStale's.
func (c *Collector) account(f *FlowState) {
	var want units.Rate
	if f.portSlot != 0 && c.now.Sub(f.LastSeen) <= c.cfg.FlowFreshness {
		if r, ok := f.Rate(); ok {
			want = r
		}
	}
	if want != f.counted {
		c.portUtil[f.outPort] += want - f.counted
		f.counted = want
	}
}

// touch moves f, a linked record other than the newest whose LastSeen
// was just set to now, to the newest end of the recency list; the list
// head stands in for f's prev when f is the oldest. (The newest test,
// the LastSeen store and the fresh cursor's start are the caller's, and
// the unlink is spelled out, not shared with expire's: any one more
// puts touch past the inlining budget, and it runs once per sample.)
func (c *Collector) touch(f *FlowState) {
	if c.fresh == f.self {
		c.fresh = f.next
	}
	c.flows.record(f.prev).next = f.next
	c.flows.record(f.next).prev = f.prev
	f.prev = c.newest.self
	f.next = 0
	c.newest.next = f.self
	c.newest = f
}

// link puts f, a record just filed with its LastSeen set, at the newest
// end of the recency list.
func (c *Collector) link(f *FlowState) {
	if n := c.newest; n != nil {
		f.prev = n.self
		n.next = f.self
	} else {
		c.flows.head().next = f.self
	}
	c.newest = f
	c.holdFresh(f)
}

// holdFresh starts the fresh cursor at f, the newest flow, when no flow
// was fresh.
func (c *Collector) holdFresh(f *FlowState) {
	if c.fresh == 0 {
		c.fresh, c.freshSeen = f.self, f.LastSeen
	}
}

// oldest returns the head of the recency list, nil when it is empty.
func (c *Collector) oldest() *FlowState {
	if c.newest == nil {
		return nil
	}
	return c.flows.record(c.flows.head().next)
}

// never is freshSeen while no flow is fresh: no sample is that late.
const never = units.Time(math.MaxInt64)

// retireStale advances the fresh cursor past every flow last seen more
// than FlowFreshness before now, dropping each one's contribution and
// freshness bit, and sets freshSeen to the LastSeen of the flow it
// stops at. A flow is passed once per time it goes quiet, so the cost
// per sample is constant on average.
func (c *Collector) retireStale() {
	for r := c.fresh; r != 0; {
		f := c.flows.record(r)
		if c.now.Sub(f.LastSeen) <= c.cfg.FlowFreshness {
			c.fresh, c.freshSeen = r, f.LastSeen
			return
		}
		if i := f.portSlot - 1; i >= 0 {
			c.portUtil[f.outPort] -= f.counted
			f.counted = 0
			c.portFresh[f.outPort][i>>6] &^= 1 << (i & 63)
		}
		r = f.next
	}
	c.fresh, c.freshSeen = 0, never
}

// CheckCongestion reads the utilization of f's egress link and, if it
// crossed the threshold and the link is out of cooldown, emits an event
// stamped t and vantage to the subscribers; inside the cooldown it
// counts the candidate suppressed. Ingest runs it on every sample that
// closes a rate window. An aggregation plane runs it on a record Fold
// returned, for a report that closed one at the vantage, so the
// switch's collector owns the link's cooldown for the whole fleet.
func (c *Collector) CheckCongestion(t units.Time, f *FlowState, vantage int) {
	p := int(f.outPort)
	if p < 0 || p >= len(c.portFlows) || len(c.subs) == 0 {
		return
	}
	timed := c.met.timed
	var t0 int64
	if timed {
		t0 = obs.Nanos()
	}
	util := c.LinkUtilization(p)
	if timed {
		now := obs.Nanos()
		c.met.stageUtil.Observe(now - t0)
		t0 = now
	}
	if float64(util) < c.cfg.UtilThreshold*float64(c.cfg.LinkRate) {
		return
	}
	if t.Sub(c.lastEvent[p]) < c.cfg.EventCooldown {
		c.met.suppressed.IncRelaxed()
		return
	}
	c.lastEvent[p] = t
	flows := c.evFlows
	c.evFlows = nil
	if n := c.freshOnPort(p); flows == nil || cap(flows) < n {
		flows = make([]FlowInfo, n, n+n/4)
	} else {
		flows = flows[:n]
	}
	ev := CongestionEvent{
		Time:       t,
		SwitchName: c.cfg.SwitchName,
		Port:       p,
		Util:       util,
		Capacity:   c.cfg.LinkRate,
		Flows:      c.fillFlowsOnPort(flows, p),
		Epoch:      f.routeEpoch,
		Vantage:    vantage,
	}
	if tr := c.cfg.Tracer; tr != nil {
		// The trace is born here: stamped with the triggering flow's
		// resolving epoch; the capture timestamp is back-dated by the
		// capture stack's StampCapture after the batch.
		ev.ID = tr.NextID()
		tr.Begin(ev.ID, t, c.cfg.SwitchName, p, f.routeEpoch, util, c.cfg.LinkRate)
	}
	c.met.events.IncRelaxed()
	for _, fn := range c.subs {
		fn(ev)
	}
	c.evFlows = flows
	if timed {
		c.met.stageDispatch.Observe(obs.Nanos() - t0)
	}
}

// RestoreCooldowns seeds per-port event cooldowns from the last
// congestion-event time per port of a previous incarnation of this
// collector, as a supervisor records them from delivered events. For
// each port the later of the current and restored time wins, so
// restoring is idempotent and never un-fires a cooldown. Call it before
// the first Ingest of a restarted collector: replayed or re-synced
// samples that would re-fire an event inside EventCooldown of a
// restored time are then suppressed.
func (c *Collector) RestoreCooldowns(snap map[int]units.Time) {
	for p, t := range snap {
		if p >= 0 && p < len(c.lastEvent) && t > c.lastEvent[p] {
			c.lastEvent[p] = t
		}
	}
}

// LinkUtilization sums the fresh flow-rate estimates mapped to egress
// port p (§3.2.2: "the controller sums the throughput of all flows
// traversing a given link"). The sum is kept current as samples arrive;
// this only reads it.
func (c *Collector) LinkUtilization(p int) units.Rate {
	if p < 0 || p >= len(c.portUtil) {
		return 0
	}
	return c.portUtil[p]
}

// LinkUtilizationAt is LinkUtilization(p) as of now, a time at or past
// the collector's clock: the flows that have gone stale between the
// clock and now no longer count. It only reads, so a caller whose clock
// runs ahead of the samples (an aggregation plane between reports) can
// ask without moving the collector's. The stale flows are the head of
// the recency list from the fresh cursor on, so the cost is the number
// of flows going stale, not the number of flows.
func (c *Collector) LinkUtilizationAt(p int, now units.Time) units.Rate {
	if p < 0 || p >= len(c.portUtil) {
		return 0
	}
	util := c.portUtil[p]
	for r := c.fresh; r != 0; {
		f := c.flows.record(r)
		if now.Sub(f.LastSeen) <= c.cfg.FlowFreshness {
			break
		}
		if f.portSlot != 0 && int(f.outPort) == p {
			util -= f.counted
		}
		r = f.next
	}
	return util
}

// FlowsOnPort snapshots the fresh flows mapped to egress port p, in
// port-list order: the set bits of the port's freshness bitmap, counted
// to size the answer and then read in slot order. The cost is one word
// per 64 flows of the port plus one record per fresh flow; the port's
// stale flows are never read. The answer is the caller's own.
func (c *Collector) FlowsOnPort(p int) []FlowInfo {
	if p < 0 || p >= len(c.portFlows) {
		return nil
	}
	return c.fillFlowsOnPort(make([]FlowInfo, c.freshOnPort(p)), p)
}

// freshOnPort counts the fresh flows mapped to egress port p.
func (c *Collector) freshOnPort(p int) int {
	n := 0
	for _, w := range c.portFresh[p] {
		n += bits.OnesCount64(w)
	}
	return n
}

// fillFlowsOnPort writes FlowsOnPort(p)'s answer into out, whose length
// is freshOnPort(p), and returns it.
func (c *Collector) fillFlowsOnPort(out []FlowInfo, p int) []FlowInfo {
	l := c.portFlows[p]
	i := 0
	for wi, w := range c.portFresh[p] {
		for ; w != 0; w &= w - 1 {
			f := c.flows.record(l[wi<<6|bits.TrailingZeros64(w)])
			r, _ := f.Rate()
			out[i] = FlowInfo{Key: f.Key, DstMAC: f.DstMAC, Rate: r, OutPort: p}
			i++
		}
	}
	return out
}

// FlowRate answers the per-flow query API.
func (c *Collector) FlowRate(k packet.FlowKey) (units.Rate, bool) {
	f := c.flows.Lookup(HashFlowKey(k), k)
	if f == nil {
		return 0, false
	}
	return f.Rate()
}

// Flow returns the full flow record for k, or nil. A flow still held as
// a one-sample mouse is promoted to a full record first, in place: no
// answer of the collector changes. The record is owned by the flow
// table: it is recycled when the flow expires, so do not retain the
// pointer across ExpireFlows.
func (c *Collector) Flow(k packet.FlowKey) *FlowState {
	h := HashFlowKey(k)
	f := c.flows.Lookup(h, k)
	if f != nil && f.flags&isMouse != 0 {
		f = c.promote(h, f)
	}
	return f
}

// Flows calls fn for every live flow, oldest sample first — the order a
// routing change re-resolves flows in. A flow with one sample may be
// held as a mouse; fn then gets a read-only copy of the full record it
// stands for (SampledPackets 1, FirstSeen = LastSeen, no rate), valid
// until fn returns. Every other record is the table's own, valid until
// ExpireFlows. fn must not ingest, expire or call Flow.
func (c *Collector) Flows(fn func(f *FlowState)) {
	var view FlowState
	for f := c.oldest(); f != nil; f = c.flows.at(f.next) {
		if f.flags&isMouse != 0 {
			asMouse(f).expand(&view)
			fn(&view)
		} else {
			fn(f)
		}
	}
}

// FlowTableProbeStats reports the flow table's current mean and
// maximum lookup probe length — an on-demand health check.
func (c *Collector) FlowTableProbeStats() (mean float64, max int) {
	return c.flows.ProbeStats()
}

// ExpireFlows drops flow records idle longer than idle, returning how
// many were removed. Expired records are recycled — pointers obtained
// from Flow/Flows before the call are invalid after it. Call
// periodically from the hosting process. The recency list is in
// LastSeen order, so the idle flows are exactly its head; the walk
// stops at the first survivor and costs O(expired), whatever the
// table holds.
func (c *Collector) ExpireFlows(now units.Time, idle units.Duration) int {
	n := 0
	for f := c.oldest(); f != nil && now.Sub(f.LastSeen) > idle; f = c.oldest() {
		c.unlist(f)
		if c.fresh == f.self {
			// freshSeen stays a bound: the next flow is seen no earlier.
			c.fresh = f.next
			if f.next == 0 {
				c.freshSeen = never
			}
		}
		c.flows.head().next = f.next
		if f.next != 0 {
			c.flows.record(f.next).prev = 0
		} else {
			c.newest = nil
		}
		c.flows.Remove(f)
		n++
	}
	c.publishFlows()
	return n
}

// publishFlows brings the flow-table gauge up to date. It runs once at
// the end of every call that can insert or remove, not per insert: the
// gauge's atomic store is an XCHG on amd64, which waits for the
// insert's pending cache-missing stores, and under scan traffic almost
// every sample inserts.
func (c *Collector) publishFlows() {
	if n := int64(c.flows.Len()); n != c.met.flowTableSize.Value() {
		c.met.flowTableSize.Set(n)
	}
}

// DumpPcap writes the vantage-point ring to w as a pcap file (§6.1).
func (c *Collector) DumpPcap(w io.Writer) error {
	if c.ring == nil {
		return fmt.Errorf("core: collector %q has no sample ring", c.cfg.SwitchName)
	}
	return c.ring.WritePcap(w)
}

// Ring exposes the vantage-point buffer (nil when disabled).
func (c *Collector) RingBuffer() *Ring { return c.ring }
