package vantagelink

import (
	"sort"

	"planck/internal/core"
	"planck/internal/obs"
	"planck/internal/units"
)

// ReportSink is where the receiver delivers one vantage's stream: the
// adapter onto an agg.Plane vantage. Report receives resequenced,
// cross-vantage time-ordered records; Live is called for every frame
// that arrives from the vantage (liveness on the receiver's clock);
// Rejoin relays a supervised-restart announcement in stream position.
type ReportSink interface {
	Report(rep *core.FlowReport)
	Live(now units.Time)
	Rejoin(gen uint32)
}

// NackAfter is how long a detected gap may age before the first NACK
// goes out: one channel round trip of margin for plain reordering to
// fill the gap for free.
const NackAfter = 100 * units.Microsecond

// The receiver's fixed NACK pacing and buffer bound.
const (
	// nackBackoff is the spacing between repeated NACKs of the same
	// gap. The head-of-line gap doubles it per attempt (capped at 64×);
	// deeper gaps re-NACK at this flat pacing, since a backlogged sender
	// services them oldest-first a queueful at a time.
	nackBackoff = 300 * units.Microsecond
	// nackAttempts bounds how many NACKs the head-of-line gap gets
	// before the receiver abandons it (frame declared lost, sequence
	// skipped).
	nackAttempts = 10
	// maxBuffered bounds the per-vantage out-of-order frame buffer;
	// overflowing frames are dropped and recovered later via NACK.
	maxBuffered = 1024
)

// ReceiverConfig tunes the plane-side half of the link. A zero
// HoldTimeout takes the default below.
type ReceiverConfig struct {
	// HoldTimeout is how long a silent vantage may hold back the merge
	// watermark before it is excluded (partitioned or dead — the rest
	// of the fleet must keep flowing). An excluded vantage rejoins the
	// watermark on its next frame. Default 2 ms.
	HoldTimeout units.Duration

	// Metrics, when non-nil, receives the receiver's planck_link_rx_*
	// instruments.
	Metrics *obs.Registry
}

func (c ReceiverConfig) withDefaults() ReceiverConfig {
	if c.HoldTimeout == 0 {
		c.HoldTimeout = 2 * units.Millisecond
	}
	return c
}

// gapState tracks one missing sequence number.
type gapState struct {
	missedAt units.Time
	nextNack units.Time
	attempts int
}

// rxVantage is the receiver's per-vantage resequencing state.
type rxVantage struct {
	id   uint16
	sink ReportSink
	ctrl Channel // reverse channel for NACK and Sync

	nextSeq  uint64            // next in-sequence frame expected
	buffered map[uint64][]byte // out-of-order frames held for resequencing
	gaps     map[uint64]*gapState

	// through is the newest in-sequence synced frame timestamp: every
	// record this vantage will ever deliver in sequence from here on
	// is stamped ≥ through, which is what makes min(through) a safe
	// release watermark.
	through    units.Time
	hasThrough bool

	lastRecv units.Time // receiver-clock arrival of the newest frame
	everRecv bool
	excluded bool // silent past HoldTimeout: not holding the watermark
}

// mergeRec is one record waiting in the cross-vantage merge heap,
// ordered by (time, vantage, seq, idx) — a global report-time order
// with a deterministic tie-break.
type mergeRec struct {
	time    units.Time
	vantage uint16
	seq     uint64
	idx     int32
	rep     core.FlowReport
}

func mergeLess(a, b *mergeRec) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.vantage != b.vantage {
		return a.vantage < b.vantage
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.idx < b.idx
}

type receiverMetrics struct {
	frames     obs.Counter // valid frames accepted
	records    obs.Counter // records decoded into the merge heap
	released   obs.Counter // records released to sinks in merge order
	badFrames  obs.Counter // short/corrupt/malformed datagrams dropped
	dupFrames  obs.Counter // duplicate (or post-abandon) frames dropped
	unknownVnt obs.Counter // frames for vantages never joined
	gaps       obs.Counter // sequence gaps detected
	nacks      obs.Counter // NACK frames sent
	abandoned  obs.Counter // gaps given up after NackAttempts
	late       obs.Counter // records arriving behind the watermark
	overflow   obs.Counter // out-of-order frames dropped by MaxBuffered
	exclusions obs.Counter // vantages excluded from the watermark
	syncs      obs.Counter // sync replies sent
}

// Receiver is the plane-side half of the link: it resequences each
// vantage's frame stream (gap detection feeding a NACK/retransmit
// loop with bounded exponential backoff), merges all vantages'
// records into global report-time order behind a watermark, answers
// heartbeats with clock-sync replies, and drives vantage liveness
// from frame arrivals. Drive it from one goroutine (the engine in
// simulation, a lock-holding wrapper over UDP).
type Receiver struct {
	cfg ReceiverConfig

	vantages map[uint16]*rxVantage
	order    []*rxVantage // deterministic iteration, join order

	heap      []mergeRec
	watermark units.Time
	hasWM     bool

	// OnAdvance, when non-nil, observes every watermark advance after
	// the records behind it have been released — wire it to
	// agg.Plane.AdvanceMerge so the plane's merge clock follows the
	// delivery clock, never the wall clock.
	OnAdvance func(wm units.Time)

	scratch   []byte   // NACK/Sync reply build buffer
	dueSeqs   []uint64 // per-Tick sorted gap scratch
	nackRange int

	met receiverMetrics
}

// NewReceiver builds an empty receiver; Join adds vantages.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	cfg = cfg.withDefaults()
	r := &Receiver{cfg: cfg, vantages: make(map[uint16]*rxVantage)}
	if m := cfg.Metrics; m != nil {
		m.MustRegister("planck_link_rx_frames_total", &r.met.frames)
		m.MustRegister("planck_link_rx_records_total", &r.met.records)
		m.MustRegister("planck_link_rx_released_total", &r.met.released)
		m.MustRegister("planck_link_rx_bad_frames_total", &r.met.badFrames)
		m.MustRegister("planck_link_rx_dup_frames_total", &r.met.dupFrames)
		m.MustRegister("planck_link_rx_unknown_vantage_total", &r.met.unknownVnt)
		m.MustRegister("planck_link_rx_gaps_total", &r.met.gaps)
		m.MustRegister("planck_link_rx_nacks_total", &r.met.nacks)
		m.MustRegister("planck_link_rx_gaps_abandoned_total", &r.met.abandoned)
		m.MustRegister("planck_link_rx_late_records_total", &r.met.late)
		m.MustRegister("planck_link_rx_overflow_drops_total", &r.met.overflow)
		m.MustRegister("planck_link_rx_exclusions_total", &r.met.exclusions)
		m.MustRegister("planck_link_rx_syncs_total", &r.met.syncs)
		m.MustRegister("planck_link_rx_merge_pending", obs.GaugeFunc(func() float64 { return float64(len(r.heap)) }))
	}
	return r
}

// Join registers a vantage: frames stamped with this id deliver to
// sink, and NACK/Sync replies go out on ctrl. Sequence numbers start
// at 1 (a fresh sender); join before the first frame arrives.
func (r *Receiver) Join(vantage uint16, sink ReportSink, ctrl Channel) {
	v := &rxVantage{
		id: vantage, sink: sink, ctrl: ctrl,
		nextSeq:  1,
		buffered: make(map[uint64][]byte),
		gaps:     make(map[uint64]*gapState),
	}
	r.vantages[vantage] = v
	r.order = append(r.order, v)
}

// HandleDatagram processes one arriving datagram at receiver time now.
// Invalid frames are counted and dropped — corruption degrades to
// loss, which the NACK loop recovers.
func (r *Receiver) HandleDatagram(now units.Time, dgram []byte) {
	h, payload, err := ParseFrame(dgram)
	if err != nil {
		r.met.badFrames.IncRelaxed()
		return
	}
	if h.Type != FrameData && h.Type != FrameHeartbeat && h.Type != FrameRejoin {
		r.met.badFrames.IncRelaxed()
		return
	}
	v := r.vantages[h.Vantage]
	if v == nil {
		r.met.unknownVnt.IncRelaxed()
		return
	}
	r.met.frames.IncRelaxed()
	v.everRecv = true
	if now > v.lastRecv {
		v.lastRecv = now
	}
	v.excluded = false
	v.sink.Live(now)

	// Heartbeats answer with a sync reply immediately — even out of
	// order, so the sender's clock correction never waits on a gap.
	// The advertised ring trail applies at arrival too: when a gap is
	// large enough to block sequencing, the trail is the only way out.
	if h.Type == FrameHeartbeat {
		r.met.syncs.IncRelaxed()
		r.scratch = AppendHeader(r.scratch[:0], Header{
			Type: FrameSync, Vantage: h.Vantage, Time: now,
		})
		r.scratch = AppendSync(r.scratch, h.Time, now, now)
		FinishFrame(r.scratch)
		_ = v.ctrl.Send(now, r.scratch)
		if _, trail := DecodeHeartbeat(payload); trail > v.nextSeq {
			r.advanceTrail(v, trail)
		}
	}

	switch {
	case h.Seq < v.nextSeq:
		// Already delivered or abandoned: duplicate.
		r.met.dupFrames.IncRelaxed()
	case h.Seq == v.nextSeq:
		delete(v.gaps, h.Seq)
		r.deliverFrame(v, h, payload)
		v.nextSeq++
		r.drainBuffered(v)
	default:
		if _, dup := v.buffered[h.Seq]; dup {
			r.met.dupFrames.IncRelaxed()
			break
		}
		if _, isGap := v.gaps[h.Seq]; !isGap && len(v.buffered) >= maxBuffered {
			// Drop far-ahead frames; the gap machinery re-fetches them
			// once there is room. A frame filling a registered gap is
			// exempt from the cap: it is a resend we NACKed for, and
			// dropping it would re-NACK forever while the buffer stays
			// pinned — the cap's memory bound still holds because gaps
			// are bounded by the sender's advertised ring window.
			r.met.overflow.IncRelaxed()
			break
		}
		cp := make([]byte, len(dgram))
		copy(cp, dgram)
		v.buffered[h.Seq] = cp
		for seq := v.nextSeq; seq < h.Seq; seq++ {
			if _, ok := v.buffered[seq]; ok {
				continue
			}
			if _, ok := v.gaps[seq]; ok {
				continue
			}
			v.gaps[seq] = &gapState{missedAt: now, nextNack: now.Add(NackAfter)}
			r.met.gaps.IncRelaxed()
		}
	}
	r.advanceMerge()
}

// deliverFrame folds one in-sequence frame into the merge heap and
// the vantage's watermark state.
func (r *Receiver) deliverFrame(v *rxVantage, h Header, payload []byte) {
	switch h.Type {
	case FrameData:
		n := len(payload) / RecordLen
		for i := 0; i < n; i++ {
			rec := mergeRec{vantage: v.id, seq: h.Seq, idx: int32(i)}
			DecodeRecord(payload[i*RecordLen:], &rec.rep)
			rec.time = rec.rep.Time
			if r.hasWM && rec.time < r.watermark {
				r.met.late.IncRelaxed()
			}
			r.heapPush(rec)
			r.met.records.IncRelaxed()
		}
		if h.Time > v.through || !v.hasThrough {
			v.through = h.Time
			v.hasThrough = true
		}
	case FrameHeartbeat:
		if synced, _ := DecodeHeartbeat(payload); synced && (h.Time > v.through || !v.hasThrough) {
			v.through = h.Time
			v.hasThrough = true
		}
	case FrameRejoin:
		v.sink.Rejoin(DecodeRejoin(payload))
		if h.Time > v.through || !v.hasThrough {
			v.through = h.Time
			v.hasThrough = true
		}
	}
}

// drainBuffered replays buffered frames that are now in sequence.
func (r *Receiver) drainBuffered(v *rxVantage) {
	for {
		frame, ok := v.buffered[v.nextSeq]
		if !ok {
			return
		}
		delete(v.buffered, v.nextSeq)
		delete(v.gaps, v.nextSeq)
		h, payload, err := ParseFrame(frame)
		if err == nil {
			r.deliverFrame(v, h, payload)
		}
		v.nextSeq++
	}
}

// advanceMerge recomputes the release watermark — the minimum
// delivered-through time over vantages still counted (received at
// least one synced frame, not excluded for silence) — and releases
// every heap record whose place in the merge order is final: those
// strictly older than it, and those exactly at it that no counted
// vantage can still get ahead of (releaseTo).
func (r *Receiver) advanceMerge() {
	wm := units.Time(1<<63 - 1)
	// holder is the smallest id among the counted vantages sitting at wm:
	// the first, in merge order, that can still deliver a record stamped
	// exactly wm.
	holder := uint16(0)
	counted := 0
	for _, v := range r.order {
		if v.excluded {
			continue
		}
		if !v.hasThrough {
			return // a live vantage has not established a clock yet
		}
		counted++
		if v.through < wm || (v.through == wm && v.id < holder) {
			wm, holder = v.through, v.id
		}
	}
	if counted == 0 {
		// The whole fleet is silent past HoldTimeout, so nothing holds
		// the watermark — and nothing advances it either, which would
		// park the final sub-window of records in the heap until Close.
		// If every stream is contiguous (no gaps to fill, no frames
		// waiting behind one), drain: a cleanly departed sender has no
		// older records left to send, and a crashed one announces a
		// fresh generation on rejoin.
		if len(r.heap) == 0 {
			return
		}
		for _, v := range r.order {
			if len(v.gaps) > 0 || len(v.buffered) > 0 {
				return
			}
		}
		wm, holder = r.watermark, 0
		for i := range r.heap {
			if t := r.heap[i].time + 1; t > wm {
				wm = t
			}
		}
	}
	if r.hasWM && wm < r.watermark {
		return
	}
	// An unchanged watermark still releases: its holder may have
	// delivered more records stamped exactly at it.
	advanced := !r.hasWM || wm > r.watermark
	r.watermark, r.hasWM = wm, true
	r.releaseTo(wm, holder)
	if advanced && r.OnAdvance != nil {
		r.OnAdvance(wm)
	}
}

// releaseTo pops and delivers the records whose merge order is final
// under watermark wm, held by vantage holder. A record older than wm
// is: every counted vantage has delivered through wm and stamps never
// decrease. A record stamped exactly wm is final too unless a counted
// vantage with a smaller id — which would sort ahead of it — still sits
// at wm and may deliver one more record with that stamp; the vantage's
// own later records sort after it by sequence number. With one vantage
// a frame's last record therefore leaves with the frame, not with the
// next one.
func (r *Receiver) releaseTo(wm units.Time, holder uint16) {
	for len(r.heap) > 0 {
		if h := &r.heap[0]; h.time > wm || (h.time == wm && h.vantage > holder) {
			return
		}
		rec := r.heapPop()
		r.met.released.IncRelaxed()
		r.vantages[rec.vantage].sink.Report(&rec.rep)
	}
}

// Tick drives the receiver's clocks at time now: silence exclusion,
// gap NACKs with exponential backoff, head-of-line abandonment, and a
// watermark advance reflecting any of those. Call it on a short
// period (the lab defaults to 250 µs).
func (r *Receiver) Tick(now units.Time) {
	for _, v := range r.order {
		if !v.excluded && (!v.everRecv || now.Sub(v.lastRecv) > r.cfg.HoldTimeout) {
			v.excluded = true
			r.met.exclusions.IncRelaxed()
		}
		r.nackDue(v, now)
		r.abandonHead(v)
	}
	r.advanceMerge()
}

// nackDue sends one NACK frame covering every gap of v whose clock
// has expired, coalescing consecutive sequence numbers into ranges.
func (r *Receiver) nackDue(v *rxVantage, now units.Time) {
	if len(v.gaps) == 0 {
		return
	}
	due := r.dueSeqs[:0]
	for seq, g := range v.gaps {
		if !now.Before(g.nextNack) {
			due = append(due, seq)
		}
	}
	r.dueSeqs = due
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	r.scratch = AppendHeader(r.scratch[:0], Header{
		Type: FrameNack, Vantage: v.id, Time: now,
	})
	ranges := 0
	for i := 0; i < len(due); {
		j := i + 1
		for j < len(due) && due[j] == due[j-1]+1 {
			j++
		}
		r.scratch = AppendNackRange(r.scratch, due[i], due[j-1]+1)
		ranges++
		i = j
	}
	FinishFrame(r.scratch)
	r.met.nacks.IncRelaxed()
	_ = v.ctrl.Send(now, r.scratch)
	for _, seq := range due {
		g := v.gaps[seq]
		if seq == v.nextSeq {
			// Only the head-of-line gap — the one actually blocking
			// delivery, and the only one eligible for abandonment —
			// pays exponential backoff and attempt accounting.
			g.attempts++
			g.nextNack = now.Add(nackBackoff << uint(min(g.attempts-1, 6)))
		} else {
			// Deeper gaps re-NACK at flat pacing: a backlogged sender
			// services resends oldest-first a queueful at a time, and
			// punishing the queue wait with backoff would starve it.
			g.nextNack = now.Add(nackBackoff)
		}
	}
}

// abandonHead gives up on head-of-line gaps that have exhausted their
// NACK budget: the frame is declared lost, the sequence skips it, and
// anything buffered behind it delivers. Only the head can be skipped
// — deeper gaps keep their (still counting) NACK clocks until they
// reach the head.
func (r *Receiver) abandonHead(v *rxVantage) {
	for {
		g, ok := v.gaps[v.nextSeq]
		if !ok || g.attempts <= nackAttempts {
			return
		}
		delete(v.gaps, v.nextSeq)
		r.met.abandoned.IncRelaxed()
		v.nextSeq++
		r.drainBuffered(v)
	}
}

// advanceTrail applies a heartbeat's advertised transmit-window
// trailing edge: every sequence below trail has been evicted from the
// sender's retransmit ring, so NACKing it is futile. Anything already
// buffered below the trail delivers; the rest is abandoned on the
// spot. This is how a vantage recovers from a partition that outlasted
// its ring — without it, hundreds of dead gaps would each have to burn
// a full NACK budget at the head of the line.
func (r *Receiver) advanceTrail(v *rxVantage, trail uint64) {
	for v.nextSeq < trail {
		if frame, ok := v.buffered[v.nextSeq]; ok {
			delete(v.buffered, v.nextSeq)
			delete(v.gaps, v.nextSeq)
			if h, payload, err := ParseFrame(frame); err == nil {
				r.deliverFrame(v, h, payload)
			}
		} else if _, ok := v.gaps[v.nextSeq]; ok {
			delete(v.gaps, v.nextSeq)
			r.met.abandoned.IncRelaxed()
		}
		v.nextSeq++
	}
	r.drainBuffered(v)
}

// Drain force-completes delivery for shutdown and tests: every
// outstanding gap is abandoned, buffered frames deliver in sequence,
// and the merge heap empties in final order. After Drain the receiver
// has delivered everything it will ever deliver.
func (r *Receiver) Drain() {
	for _, v := range r.order {
		for len(v.buffered) > 0 {
			if _, ok := v.buffered[v.nextSeq]; !ok {
				if _, gap := v.gaps[v.nextSeq]; gap {
					delete(v.gaps, v.nextSeq)
					r.met.abandoned.IncRelaxed()
				}
				v.nextSeq++
				continue
			}
			r.drainBuffered(v)
		}
		for seq := range v.gaps {
			delete(v.gaps, seq)
			r.met.abandoned.IncRelaxed()
		}
	}
	for len(r.heap) > 0 {
		rec := r.heapPop()
		r.met.released.IncRelaxed()
		r.vantages[rec.vantage].sink.Report(&rec.rep)
	}
}

// Complete reports whether nothing is pending: no gaps, no buffered
// frames, an empty merge heap.
func (r *Receiver) Complete() bool {
	if len(r.heap) > 0 {
		return false
	}
	for _, v := range r.order {
		if len(v.gaps) > 0 || len(v.buffered) > 0 {
			return false
		}
	}
	return true
}

// Watermark returns the current release watermark.
func (r *Receiver) Watermark() units.Time { return r.watermark }

// PendingRecords returns the merge-heap depth.
func (r *Receiver) PendingRecords() int { return len(r.heap) }

// OutstandingGaps returns the total unresolved gap count.
func (r *Receiver) OutstandingGaps() int {
	n := 0
	for _, v := range r.order {
		n += len(v.gaps)
	}
	return n
}

// Abandoned returns how many gaps were given up (frames lost for good).
func (r *Receiver) Abandoned() int64 { return r.met.abandoned.Value() }

// LateRecords returns how many records arrived behind the watermark.
func (r *Receiver) LateRecords() int64 { return r.met.late.Value() }

// FramesReceived returns how many valid frames arrived.
func (r *Receiver) FramesReceived() int64 { return r.met.frames.Value() }

// RecordsReleased returns how many records reached the sinks.
func (r *Receiver) RecordsReleased() int64 { return r.met.released.Value() }

// RecordsReceived returns how many records were decoded in sequence.
func (r *Receiver) RecordsReceived() int64 { return r.met.records.Value() }

// GapsDetected returns how many sequence gaps were ever detected.
func (r *Receiver) GapsDetected() int64 { return r.met.gaps.Value() }

// DupFrames returns how many duplicate frames were dropped.
func (r *Receiver) DupFrames() int64 { return r.met.dupFrames.Value() }

// Exclusions returns how many times silence has excluded a vantage
// from the watermark.
func (r *Receiver) Exclusions() int64 { return r.met.exclusions.Value() }

// Excluded reports whether the vantage is currently excluded from the
// watermark for silence.
func (r *Receiver) Excluded(vantage uint16) bool {
	v := r.vantages[vantage]
	return v != nil && v.excluded
}

// heapPush / heapPop implement a plain binary min-heap over mergeRec
// without interface boxing (container/heap would allocate per op).
func (r *Receiver) heapPush(rec mergeRec) {
	r.heap = append(r.heap, rec)
	i := len(r.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !mergeLess(&r.heap[i], &r.heap[parent]) {
			break
		}
		r.heap[i], r.heap[parent] = r.heap[parent], r.heap[i]
		i = parent
	}
}

func (r *Receiver) heapPop() mergeRec {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		smallest := i
		if l <= last-1 && mergeLess(&r.heap[l], &r.heap[smallest]) {
			smallest = l
		}
		if rt <= last-1 && mergeLess(&r.heap[rt], &r.heap[smallest]) {
			smallest = rt
		}
		if smallest == i {
			break
		}
		r.heap[i], r.heap[smallest] = r.heap[smallest], r.heap[i]
		i = smallest
	}
	return top
}
