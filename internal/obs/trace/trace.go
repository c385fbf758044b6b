// Package trace provides causal control-loop spans: one span follows a
// congestion event from the triggering sample through detection,
// supervisor queueing, retried delivery, the controller's decision
// (routing.Store.Commit), per-switch actuation, and finally
// re-convergence — the first sample the collector resolves through the
// new routing epoch under the moved flow's new label. The per-stage
// durations reproduce the paper's Fig. 10 latency breakdown for every
// individual reroute instead of only in aggregate.
//
// The tracer is deliberately off the sample hot path: collectors touch
// it only when a rate-estimation window closes AND a congestion event
// actually fires (checkCongestion), plus one branch + one atomic load
// in remapFlowAt, which itself only runs on label/epoch changes. With a
// tracer attached but no event in flight, ingest performs zero
// allocations and no locked operations — routing's
// TestViewHotPathDoesNotAllocate pins this down.
//
// Completed spans land in a fixed-size lock-free flight-recorder ring
// (recorder.go) and feed per-stage obs histograms for /debug/traces/summary.
package trace

import (
	"sync"
	"sync/atomic"

	"planck/internal/obs"
	"planck/internal/packet"
	"planck/internal/units"
)

// Outcome classifies how a span ended.
type Outcome uint8

// Outcomes.
const (
	// OutcomeActive marks a span still in flight (never recorded).
	OutcomeActive Outcome = iota
	// OutcomeConverged is the full control loop: the collector resolved
	// a sample of the moved traffic through the new epoch and label.
	OutcomeConverged
	// OutcomeNoReroute means the event was delivered but no subscriber
	// committed a route change (TE judged the placement already best).
	OutcomeNoReroute
	// OutcomeNoChange means a reroute was requested onto the tree the
	// traffic already rides: the commit diffed empty, nothing actuated.
	OutcomeNoChange
	// OutcomeDroppedStale means a dead collector generation emitted the
	// event and the supervisor discarded it.
	OutcomeDroppedStale
	// OutcomeAbandoned means delivery gave up (MaxAttempts exceeded).
	OutcomeAbandoned
	// OutcomeOrphaned means the run ended (or the active table
	// overflowed) before the span could complete.
	OutcomeOrphaned

	outcomeCount // number of outcomes, sizing per-outcome counters
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeActive:
		return "active"
	case OutcomeConverged:
		return "converged"
	case OutcomeNoReroute:
		return "no-reroute"
	case OutcomeNoChange:
		return "no-change"
	case OutcomeDroppedStale:
		return "dropped-stale"
	case OutcomeAbandoned:
		return "abandoned"
	case OutcomeOrphaned:
		return "orphaned"
	}
	return "unknown"
}

// NumStages is the number of per-stage durations in a breakdown.
const NumStages = 6

// StageNames labels Span.Breakdown's entries, matching Fig. 10's
// components (see DESIGN.md §3.5 for the mapping).
var StageNames = [NumStages]string{
	"detection", "queue", "delivery", "decision", "actuation", "convergence",
}

// Span is one control-loop trace. Timestamps are absolute simulation
// (or wall) times; a zero timestamp means the stage was never reached.
// Stage order: SampleAt ≤ DetectAt ≤ QueuedAt ≤ DeliveredAt ≤
// DecidedAt ≤ ActuatedAt ≤ ConvergedAt (marks are clamped monotone on
// entry, so the inequality holds for every recorded span).
type Span struct {
	// ID is the monotonically assigned event ID (CongestionEvent.ID).
	ID uint64
	// Switch and Port identify the congested link that fired the event.
	Switch string
	Port   int
	// Util and Capacity snapshot the triggering utilization estimate.
	Util, Capacity units.Rate
	// EpochOld is the routing epoch the triggering sample resolved
	// through; EpochNew is the epoch the controller's commit published
	// (zero until decided).
	EpochOld, EpochNew uint64

	// SampleAt is the capture timestamp of the triggering poll batch's
	// earliest sample; DetectAt is when the collector emitted the event.
	SampleAt units.Time
	DetectAt units.Time
	// QueuedAt is when the supervisor dequeued the event for delivery
	// (equals DeliveredAt on the direct-attached path).
	QueuedAt units.Time
	// DeliveredAt is when Controller.DeliverEvent accepted the event.
	DeliveredAt units.Time
	// DecidedAt is when the controller committed the new routing epoch.
	DecidedAt units.Time
	// ActuatedAt is when the last diff entry was applied to the data
	// plane (spoofed ARP landed / rewrite rule installed).
	ActuatedAt units.Time
	// ConvergedAt is the timestamp of the first sample resolved through
	// the new epoch under the moved traffic's new label.
	ConvergedAt units.Time

	// Retries counts delivery re-sends; BackoffTotal sums their delays.
	Retries      int
	BackoffTotal units.Duration
	// Actuations counts applied diff entries.
	Actuations int
	// ViaARP distinguishes the pair-override (ARP) mechanism from the
	// per-flow OpenFlow rewrite.
	ViaARP bool
	// SrcHost, DstHost, Tree describe the decided move.
	SrcHost, DstHost, Tree int

	Outcome Outcome

	// Convergence-watch state (internal).
	watchArmed bool
	watchKey   packet.FlowKey
	watchMAC   packet.MAC
	watchEpoch uint64
	actLeft    int
}

// stageEnds lists the stage-boundary timestamps in causal order,
// starting at SampleAt.
func (s *Span) stageEnds() [NumStages + 1]units.Time {
	return [NumStages + 1]units.Time{
		s.SampleAt, s.DetectAt, s.QueuedAt, s.DeliveredAt,
		s.DecidedAt, s.ActuatedAt, s.ConvergedAt,
	}
}

// Breakdown returns the per-stage durations {detection, queue,
// delivery, decision, actuation, convergence}. Stages never reached
// (timestamp zero) and everything after them report zero.
func (s *Span) Breakdown() [NumStages]units.Duration {
	var out [NumStages]units.Duration
	ends := s.stageEnds()
	prev := ends[0]
	for i := 1; i < len(ends); i++ {
		if ends[i] == 0 || prev == 0 {
			break
		}
		out[i-1] = ends[i].Sub(prev)
		prev = ends[i]
	}
	return out
}

// Total is the detection→convergence wall time for converged spans,
// and SampleAt→last-reached-stage otherwise.
func (s *Span) Total() units.Duration {
	ends := s.stageEnds()
	last := ends[0]
	for _, t := range ends[1:] {
		if t != 0 {
			last = t
		}
	}
	if s.SampleAt == 0 {
		return 0
	}
	return last.Sub(s.SampleAt)
}

// Complete reports whether every stage of the span was reached.
func (s *Span) Complete() bool {
	for _, t := range s.stageEnds() {
		if t == 0 {
			return false
		}
	}
	return true
}

// Decision carries everything the tracer needs from a controller
// commit: the published epoch, the move, and the convergence-watch key.
type Decision struct {
	EpochNew uint64
	ViaARP   bool
	// Flow is the moved flow's 5-tuple for OpenFlow moves; for ARP
	// (pair) moves only SrcIP/DstIP are matched.
	Flow packet.FlowKey
	// NewMAC is the shadow-MAC label of (DstHost, Tree) — the label
	// moved traffic carries once the actuation lands, and therefore the
	// convergence signal.
	NewMAC                 packet.MAC
	SrcHost, DstHost, Tree int
	// Changes is the snapshot diff size (0 ⇒ no-op commit).
	Changes int
}

// maxActive bounds the open-span table; congestion events are rare
// (cooldown-limited per link), so overflow means leaked spans — the
// oldest is evicted as orphaned.
const maxActive = 1024

// Tracer assigns event IDs and tracks open spans. All mark methods are
// mutex-guarded and safe from any goroutine; they run only on the
// event path (one congestion event per link per cooldown at most),
// never per sample. NoteResolve — the only method reachable from the
// ingest path — is guarded by a single atomic watch count so it is one
// load when no convergence watch is armed.
type Tracer struct {
	nextID  atomic.Uint64
	watches atomic.Int32

	mu     sync.Mutex
	active map[uint64]*Span
	// born holds spans begun since the last StampCapture call, awaiting
	// the poll batch's capture timestamp.
	born []*Span

	rec *Recorder
	// conv retains converged spans separately: the main ring wraps
	// under a steady stream of no-reroute events, and the rare spans
	// that completed the full loop are exactly the ones worth keeping.
	conv *Recorder
	// outcomes counts every completed span by outcome; unlike the ring
	// contents these totals survive wraps. Guarded by mu.
	outcomes [outcomeCount]uint64

	// Per-stage duration histograms (µs) over converged spans, backing
	// /debug/traces/summary.
	stageHist [NumStages]*obs.Histogram
	totalHist *obs.Histogram

	// Completed and Converged count recorded spans.
	Completed obs.Counter
	Converged obs.Counter

	registered atomic.Bool
}

// New builds a tracer with a flight recorder retaining the last
// ringSize completed spans (rounded up to a power of two; 0 = 256).
func New(ringSize int) *Tracer {
	tr := &Tracer{
		active: make(map[uint64]*Span),
		rec:    NewRecorder(ringSize),
		conv:   NewRecorder(64),
	}
	for i := range tr.stageHist {
		tr.stageHist[i] = obs.NewScaledHistogram(1e-3) // ns → µs
	}
	tr.totalHist = obs.NewScaledHistogram(1e-3)
	return tr
}

// Recorder exposes the flight-recorder ring.
func (tr *Tracer) Recorder() *Recorder { return tr.rec }

// NextID allocates the next event ID (IDs start at 1; 0 means
// untraced). Collectors call this exactly once per emitted event, at
// the synchronous emit, so replays of one stream assign identical ID
// streams.
func (tr *Tracer) NextID() uint64 { return tr.nextID.Add(1) }

// Begin opens a span for event id: the collector detected congestion on
// (switchName, port) at time t, with the triggering flow resolved
// through epochOld. SampleAt is provisionally t until StampCapture
// supplies the poll batch's capture timestamp.
func (tr *Tracer) Begin(id uint64, t units.Time, switchName string, port int, epochOld uint64, util, capacity units.Rate) {
	if id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, ok := tr.active[id]; ok {
		return
	}
	if len(tr.active) >= maxActive {
		tr.evictOldestLocked()
	}
	s := &Span{
		ID: id, Switch: switchName, Port: port,
		Util: util, Capacity: capacity,
		EpochOld: epochOld,
		SampleAt: t, DetectAt: t,
	}
	tr.active[id] = s
	tr.born = append(tr.born, s)
}

// evictOldestLocked completes the span with the earliest detection time
// as orphaned. Callers hold tr.mu.
func (tr *Tracer) evictOldestLocked() {
	var oldest *Span
	for _, s := range tr.active {
		if oldest == nil || s.DetectAt < oldest.DetectAt {
			oldest = s
		}
	}
	if oldest != nil {
		tr.completeLocked(oldest, OutcomeOrphaned)
	}
}

// StampCapture back-dates the SampleAt of every span begun since the
// previous call to captureAt — the earliest send timestamp in the poll
// batch whose ingest fired those events. The capture stack (lab
// CollectorNode) calls it once per delivered batch; callers without
// capture information simply never call it and SampleAt stays at
// detection time.
func (tr *Tracer) StampCapture(captureAt units.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.born {
		if captureAt > 0 && captureAt < s.DetectAt {
			s.SampleAt = captureAt
		}
	}
	tr.born = tr.born[:0]
}

// clamp returns t, floored to prev so stage timestamps stay monotone
// (the lab stamps samples "tick + overhead", so an event's nominal time
// can exceed the engine time it is drained at).
func clamp(prev, t units.Time) units.Time {
	if t < prev {
		return prev
	}
	return t
}

// MarkQueued records the supervisor dequeuing event id for delivery.
func (tr *Tracer) MarkQueued(id uint64, t units.Time) {
	if id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.active[id]
	if s == nil || s.QueuedAt != 0 {
		return
	}
	s.QueuedAt = clamp(s.DetectAt, t)
}

// RecordRetry records one delivery re-send of event id after backoff.
func (tr *Tracer) RecordRetry(id uint64, backoff units.Duration) {
	if id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if s := tr.active[id]; s != nil {
		s.Retries++
		s.BackoffTotal += backoff
	}
}

// MarkDelivered records the controller accepting event id. Idempotent:
// a retried event that raced a successful send marks once. On the
// direct-attached path (no supervisor) QueuedAt backfills to the
// delivery time, making the queue stage zero rather than unmeasured.
func (tr *Tracer) MarkDelivered(id uint64, t units.Time) {
	if id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.active[id]
	if s == nil || s.DeliveredAt != 0 {
		return
	}
	if s.QueuedAt == 0 {
		s.QueuedAt = clamp(s.DetectAt, t)
	}
	s.DeliveredAt = clamp(s.QueuedAt, t)
}

// MarkDecided records the controller's route commit for event id and
// arms the convergence watch. Only the first decision claims the span
// (one event can trigger several reroutes; the span follows the
// first). Returns whether this call claimed it — the caller wraps its
// actuation callbacks with MarkActuated only when true. A no-op commit
// (dec.Changes == 0) completes the span immediately as no-change.
func (tr *Tracer) MarkDecided(id uint64, t units.Time, dec Decision) bool {
	if id == 0 {
		return false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.active[id]
	if s == nil || s.DecidedAt != 0 {
		return false
	}
	if s.DeliveredAt == 0 {
		// Direct-attached collectors deliver synchronously inside the
		// event callback; backfill so stage order is preserved.
		if s.QueuedAt == 0 {
			s.QueuedAt = clamp(s.DetectAt, t)
		}
		s.DeliveredAt = clamp(s.QueuedAt, t)
	}
	s.DecidedAt = clamp(s.DeliveredAt, t)
	s.EpochNew = dec.EpochNew
	s.ViaARP = dec.ViaARP
	s.SrcHost, s.DstHost, s.Tree = dec.SrcHost, dec.DstHost, dec.Tree
	if dec.Changes == 0 {
		tr.completeLocked(s, OutcomeNoChange)
		return false
	}
	s.actLeft = dec.Changes
	s.watchArmed = true
	s.watchKey = dec.Flow
	s.watchMAC = dec.NewMAC
	s.watchEpoch = dec.EpochNew
	tr.watches.Add(1)
	return true
}

// MarkActuated records one applied diff entry for event id; the last
// one stamps ActuatedAt.
func (tr *Tracer) MarkActuated(id uint64, t units.Time) {
	if id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.active[id]
	if s == nil {
		return
	}
	s.Actuations++
	if s.actLeft > 0 {
		s.actLeft--
	}
	if s.actLeft == 0 && s.ActuatedAt == 0 {
		s.ActuatedAt = clamp(s.DecidedAt, t)
	}
}

// NoteResolve is the convergence probe, called from the collector's
// remapFlowAt whenever a flow's egress resolution changes: if any
// armed watch matches — the sample resolved through (at least) the
// decided epoch AND carries the moved traffic's new shadow-MAC label
// AND belongs to the moved flow (5-tuple for OpenFlow, src/dst IP pair
// for ARP) — the span converges at t. The watch-count fast path keeps
// this one atomic load when nothing is armed.
func (tr *Tracer) NoteResolve(t units.Time, key packet.FlowKey, dstMAC packet.MAC, epoch uint64) {
	if tr.watches.Load() == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.active {
		if !s.watchArmed || epoch < s.watchEpoch || dstMAC != s.watchMAC {
			continue
		}
		if s.ViaARP {
			if key.SrcIP != s.watchKey.SrcIP || key.DstIP != s.watchKey.DstIP {
				continue
			}
		} else if key != s.watchKey {
			continue
		}
		if s.ActuatedAt == 0 {
			// An actuation callback can still be pending when the first
			// post-reroute sample lands; account it to the decision time.
			s.ActuatedAt = s.DecidedAt
		}
		s.ConvergedAt = clamp(s.ActuatedAt, t)
		tr.completeLocked(s, OutcomeConverged)
	}
}

// MarkConverged completes span id as converged at time t without a
// flow-watch match — the out-of-band convergence signal for actuations
// whose effect is not a relabeled flow. Mirror-config commits converge
// this way: the governor calls it when the estimator confirms the
// monitor feed recovered after a shed/tune landed. A span that never
// decided is left open (there is nothing to converge to yet).
func (tr *Tracer) MarkConverged(id uint64, t units.Time) {
	if id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.active[id]
	if s == nil || s.DecidedAt == 0 {
		return
	}
	if s.ActuatedAt == 0 {
		// An actuation callback can still be pending; account the
		// remainder to the decision time, as NoteResolve does.
		s.ActuatedAt = s.DecidedAt
	}
	s.ConvergedAt = clamp(s.ActuatedAt, t)
	tr.completeLocked(s, OutcomeConverged)
}

// Drop completes span id with a terminal non-converged outcome
// (supervisor stale/duplicate suppression, delivery abandonment).
func (tr *Tracer) Drop(id uint64, outcome Outcome) {
	if id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if s := tr.active[id]; s != nil {
		tr.completeLocked(s, outcome)
	}
}

// FinishCause closes span id as no-reroute if the controller fanned the
// event out and no subscriber committed a route change.
func (tr *Tracer) FinishCause(id uint64) {
	if id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.active[id]
	if s == nil || s.DecidedAt != 0 {
		return
	}
	tr.completeLocked(s, OutcomeNoReroute)
}

// FlushOpen completes every still-open span as orphaned (end of run).
func (tr *Tracer) FlushOpen() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.active {
		tr.completeLocked(s, OutcomeOrphaned)
	}
}

// ActiveCount reports open spans (diagnostics).
func (tr *Tracer) ActiveCount() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.active)
}

// completeLocked stamps the outcome, retires the span from the active
// table (and its watch), pushes a copy into the flight recorder, and
// feeds the stage histograms for converged spans. Callers hold tr.mu.
func (tr *Tracer) completeLocked(s *Span, outcome Outcome) {
	s.Outcome = outcome
	delete(tr.active, s.ID)
	for i, b := range tr.born {
		if b == s {
			tr.born = append(tr.born[:i], tr.born[i+1:]...)
			break
		}
	}
	if s.watchArmed {
		s.watchArmed = false
		tr.watches.Add(-1)
	}
	cp := *s
	tr.rec.put(&cp)
	tr.outcomes[outcome]++
	tr.Completed.Inc()
	if outcome == OutcomeConverged {
		tr.conv.put(&cp)
		tr.Converged.Inc()
		bd := s.Breakdown()
		for i, d := range bd {
			tr.stageHist[i].Observe(int64(d))
		}
		tr.totalHist.Observe(int64(s.Total()))
	}
}

// OutcomeCounts returns how many completed spans ended with each
// outcome since the tracer was built; totals survive ring wraps.
func (tr *Tracer) OutcomeCounts() [outcomeCount]uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.outcomes
}

// ConvergedSpans returns the retained converged spans, oldest first.
func (tr *Tracer) ConvergedSpans() []Span { return tr.conv.Snapshot() }

// RegisterMetrics exposes the tracer's histograms and counters on reg
// and mounts the /debug/traces endpoints on its HTTP mux. Idempotent
// across calls on the same tracer (the first registry wins), so a
// shared tracer can outlive lab rebuilds.
func (tr *Tracer) RegisterMetrics(reg *obs.Registry) {
	if !tr.registered.CompareAndSwap(false, true) {
		return
	}
	for i, h := range tr.stageHist {
		reg.MustRegister("planck_trace_stage_us", h, obs.Label("stage", StageNames[i]))
	}
	reg.MustRegister("planck_trace_total_us", tr.totalHist)
	reg.MustRegister("planck_trace_completed_total", &tr.Completed)
	reg.MustRegister("planck_trace_converged_total", &tr.Converged)
	reg.Handle("/debug/traces", tr.TracesHandler())
	reg.Handle("/debug/traces/summary", tr.SummaryHandler())
}
