package vantagelink

import (
	"planck/internal/core"
	"planck/internal/obs"
	"planck/internal/units"
)

// ResendBackoff is the minimum spacing between retransmits of the same
// frame; it doubles per retransmit (capped at 64×).
const ResendBackoff = 200 * units.Microsecond

// SenderConfig names one vantage's sending half of the link and sizes
// its retransmit ring.
type SenderConfig struct {
	// Vantage is the wire identity stamped on every frame — the plane
	// vantage id the receiver delivers to.
	Vantage uint16
	// SwitchName labels the sender's metrics.
	SwitchName string

	// RingFrames sizes the retransmit ring. Zero takes 512 frames ≈ 12k
	// records of NACK-recoverable history.
	RingFrames int

	// Metrics, when non-nil, receives the sender's planck_link_tx_*
	// instruments, labelled with SwitchName.
	Metrics *obs.Registry
}

// The sender's fixed sizing and timing.
const (
	// maxRecords is the Data-frame batch size: 28 + 24·48 = 1180 bytes
	// keeps a frame under a 1500-byte MTU.
	maxRecords = 24
	// heartbeatEvery is the idle-liveness and clock-sync cadence.
	heartbeatEvery = units.Millisecond
	// queueFrames bounds the pending-send queue. When a burst exceeds
	// it, the oldest queued frame is shed (counted, still
	// NACK-recoverable from the ring) — ingest is never blocked.
	queueFrames = 256
	// syncTimeout bounds how long early records wait for the first
	// clock-sync exchange before going out uncorrected.
	syncTimeout = 5 * units.Millisecond
)

func (c SenderConfig) withDefaults() SenderConfig {
	if c.RingFrames == 0 {
		c.RingFrames = 512
	}
	return c
}

// The clock filter. One exchange bounds the offset only to within half
// its round trip, and an exchange that straddles a host stall has a
// round trip as long as the stall; applied whole, as every exchange
// once was, it threw the offset by half of that, and the monotone clamp
// then held every stamp at one time until the real clock caught up. So
// the sender remembers the last syncWindow exchanges, believes the one
// with the shortest round trip, lets an exchange that took over
// syncRTTSlack times that shortest round trip change nothing, and moves
// the offset toward the believed estimate by at most syncMaxSlew per
// exchange: thousands of times what a real clock drifts in a heartbeat
// period, so a genuine change is followed within a few exchanges, and a
// bad exchange that does pass cannot move stamps further than that.
// Only the first exchange steps: there is nothing before it to prefer.
const (
	syncWindow   = 8
	syncRTTSlack = 4
	syncMaxSlew  = 50 * units.Microsecond
)

// syncSample is one clock exchange: the offset it implies and the round
// trip that bounds its error.
type syncSample struct {
	offset units.Duration
	rtt    units.Duration
}

type ringSlot struct {
	seq        uint64
	buf        []byte
	lastSend   units.Time
	retransmit int
}

type senderMetrics struct {
	frames     obs.Counter // sequenced frames produced
	records    obs.Counter // sample records encoded
	resends    obs.Counter // frames re-queued by a NACK
	sheds      obs.Counter // queued frames shed oldest-first
	pendShed   obs.Counter // pre-sync pending records shed
	nackMisses obs.Counter // NACKed seqs already evicted from the ring
	sendErrs   obs.Counter // channel Send errors
	heartbeats obs.Counter
	syncs      obs.Counter
	syncNoisy  obs.Counter    // exchanges the clock filter let change nothing
	unsynced   obs.Counter    // records stamped without a clock offset
	hbRTT      *obs.Histogram // heartbeat→sync round trip, ns
}

// Sender is the collector-side half of the link: a core.AggregationSink
// that batches FlowReports into sequenced wire frames, keeps a
// retransmit ring for NACK recovery, sheds oldest-first under
// overload, heartbeats for liveness, and corrects its clock from the
// receiver's sync replies. Drive it from one goroutine: Report and
// BatchEnd ride the collector's ingest path; Tick and HandleControl
// come from the same engine (simulation) or a lock-holding wrapper
// (UDPSender).
//
// The ingest-facing calls (Report, BatchEnd) never touch the channel's
// I/O path directly beyond an in-memory enqueue — sends happen on
// BatchEnd/Tick/HandleControl pumps, so a slow or blocked channel can
// shed but never stall ingest.
type Sender struct {
	cfg SenderConfig
	ch  Channel

	seq uint64 // last assigned sequence number

	// cur is the Data frame under construction (header + records);
	// its seq and time fields are patched at flush.
	cur        []byte
	curRecords int
	curLast    units.Time

	ring []ringSlot

	// queue is a circular buffer of seqs awaiting (re)transmission.
	queue []uint64
	qHead int
	qLen  int

	// Clock correction state. offset is added to every stamped time
	// once the first sync exchange lands; lastStamp keeps stamped
	// times monotone across offset changes.
	offset     units.Duration
	haveOffset bool
	syncGiveUp bool
	lastStamp  units.Time
	syncs      [syncWindow]syncSample // the last exchanges, oldest overwritten
	syncCount  int

	// pending holds records produced before the first sync when the
	// sync gate is on, so their stamps can be corrected retroactively.
	pending []core.FlowReport

	now       units.Time // newest local time observed
	firstTick units.Time
	ticked    bool
	lastHB    units.Time
	// awaitSync is the stamp of the heartbeat whose sync reply we will
	// accept — exactly once, newest heartbeat only, so duplicated or
	// stale Sync frames cannot re-apply a partial offset and drift the
	// correction. awaitSeq is that heartbeat's sequence number: if a
	// NACK retransmits it, the exchange is cancelled — a recovered
	// heartbeat's forward delay includes the whole NACK round trip,
	// which breaks the symmetric-delay assumption and would fold half
	// the recovery latency into the offset as phantom skew.
	awaitSync units.Time
	awaitSeq  uint64

	scratch []byte // heartbeat/rejoin build buffer

	met senderMetrics
}

// NewSender builds a sender that transmits on ch.
func NewSender(ch Channel, cfg SenderConfig) *Sender {
	cfg = cfg.withDefaults()
	s := &Sender{
		cfg:       cfg,
		ch:        ch,
		ring:      make([]ringSlot, cfg.RingFrames),
		queue:     make([]uint64, queueFrames),
		lastHB:    -1 << 62,
		lastStamp: -1 << 62,
		awaitSync: -1 << 62,
	}
	s.met.hbRTT = obs.NewHistogram()
	if m := cfg.Metrics; m != nil {
		label := obs.Label("switch", cfg.SwitchName)
		m.MustRegister("planck_link_tx_frames_total", &s.met.frames, label)
		m.MustRegister("planck_link_tx_records_total", &s.met.records, label)
		m.MustRegister("planck_link_tx_resends_total", &s.met.resends, label)
		m.MustRegister("planck_link_tx_sheds_total", &s.met.sheds, label)
		m.MustRegister("planck_link_tx_pending_shed_total", &s.met.pendShed, label)
		m.MustRegister("planck_link_tx_nack_misses_total", &s.met.nackMisses, label)
		m.MustRegister("planck_link_tx_send_errors_total", &s.met.sendErrs, label)
		m.MustRegister("planck_link_tx_heartbeats_total", &s.met.heartbeats, label)
		m.MustRegister("planck_link_tx_syncs_total", &s.met.syncs, label)
		m.MustRegister("planck_link_tx_sync_noisy_total", &s.met.syncNoisy, label)
		m.MustRegister("planck_link_tx_unsynced_records_total", &s.met.unsynced, label)
		m.MustRegister("planck_link_hb_rtt_ns", s.met.hbRTT, label)
	}
	return s
}

// Offset returns the current clock correction (receiver − sender) and
// whether a sync exchange has established it.
func (s *Sender) Offset() (units.Duration, bool) { return s.offset, s.haveOffset }

// Resends returns how many frames NACKs have re-queued.
func (s *Sender) Resends() int64 { return s.met.resends.Value() }

// Sheds returns how many queued frames overload has shed.
func (s *Sender) Sheds() int64 { return s.met.sheds.Value() }

// FramesSent returns how many sequenced frames the sender produced.
func (s *Sender) FramesSent() int64 { return s.met.frames.Value() }

// RecordsSent returns how many sample records the sender encoded.
func (s *Sender) RecordsSent() int64 { return s.met.records.Value() }

// gated reports whether records are being held for the first sync.
func (s *Sender) gated() bool {
	return !s.haveOffset && !s.syncGiveUp
}

// stampFinal reports whether stamps are on the sender's final clock:
// corrected by a sync exchange, or knowingly uncorrected after a sync
// timeout. Only final stamps anchor the monotone clamp — a pre-sync
// heartbeat's raw stamp must not drag later corrected stamps upward.
func (s *Sender) stampFinal() bool { return !s.gated() }

// stamp converts a local event time — a reading of the host's own,
// possibly skewed, clock — into the wire timestamp by adding the sync
// correction, clamped monotone so an offset update can never make the
// stream step backwards.
func (s *Sender) stamp(t units.Time) units.Time {
	st := t
	if s.haveOffset {
		st = st.Add(s.offset)
	} else {
		s.met.unsynced.IncRelaxed()
	}
	if s.stampFinal() {
		if st < s.lastStamp {
			st = s.lastStamp
		}
		s.lastStamp = st
	}
	return st
}

func (s *Sender) noteNow(now units.Time) {
	if now > s.now {
		s.now = now
	}
}

// Report implements core.AggregationSink: encode one sample into the
// Data frame under construction, flushing at maxRecords. Pre-sync the
// record is held raw so the first offset can correct its stamp
// retroactively.
func (s *Sender) Report(rep *core.FlowReport) {
	s.noteNow(rep.Time)
	if s.gated() {
		if len(s.pending) >= queueFrames*maxRecords {
			// Shed oldest-first, same policy as the frame queue.
			copy(s.pending, s.pending[1:])
			s.pending = s.pending[:len(s.pending)-1]
			s.met.pendShed.IncRelaxed()
		}
		s.pending = append(s.pending, *rep)
		return
	}
	s.encodeRecord(rep)
}

// BatchEnd implements core.BatchEndSink: the collector finished an
// ingest batch — flush the partial frame and pump the queue.
func (s *Sender) BatchEnd(now units.Time) {
	s.noteNow(now)
	s.flushData()
	s.pump()
}

// Flush flushes the partial Data frame and pumps the queue — the
// explicit form of BatchEnd for drivers that are not collector sinks.
func (s *Sender) Flush(now units.Time) { s.BatchEnd(now) }

// Rejoin announces a supervised collector restart in-stream: the
// receiver delivers it to the plane vantage in sequence, so cooldown
// bookkeeping survives exactly as with in-process federation.
func (s *Sender) Rejoin(now units.Time, gen uint32) {
	s.noteNow(now)
	s.flushData()
	s.seq++
	s.scratch = AppendHeader(s.scratch[:0], Header{
		Type: FrameRejoin, Vantage: s.cfg.Vantage, Seq: s.seq, Time: s.stamp(now),
	})
	s.scratch = AppendRejoin(s.scratch, gen)
	FinishFrame(s.scratch)
	s.commit(s.scratch)
	s.pump()
}

// Tick drives time-based work: heartbeats (liveness + clock sync),
// the linger flush of a partial batch, the sync-gate timeout, and a
// queue pump. Call it on a short period (the lab defaults to 250 µs).
func (s *Sender) Tick(now units.Time) {
	s.noteNow(now)
	if !s.ticked {
		s.ticked = true
		s.firstTick = now
	}
	if s.gated() && now.Sub(s.firstTick) > syncTimeout {
		// No sync reply in time (dead reverse path?): stop holding
		// records, send them uncorrected.
		s.syncGiveUp = true
		s.drainPending()
	}
	if now.Sub(s.lastHB) >= heartbeatEvery {
		s.lastHB = now
		s.heartbeat(now)
	}
	s.flushData()
	s.pump()
}

// heartbeat emits a sequenced Heartbeat frame. Its timestamp is the
// t1 of the NTP-style sync exchange and, at the receiver, an idle
// vantage's watermark advance.
func (s *Sender) heartbeat(now units.Time) {
	s.flushData()
	s.seq++
	s.met.heartbeats.IncRelaxed()
	st := s.stamp(now)
	s.awaitSync = st
	s.awaitSeq = s.seq
	s.scratch = AppendHeader(s.scratch[:0], Header{
		Type: FrameHeartbeat, Vantage: s.cfg.Vantage, Seq: s.seq, Time: st,
	})
	trail := uint64(1)
	if n := uint64(len(s.ring)); s.seq >= n {
		trail = s.seq - n + 1
	}
	s.scratch = AppendHeartbeat(s.scratch, s.stampFinal(), trail)
	FinishFrame(s.scratch)
	s.commit(s.scratch)
}

// encodeRecord appends one stamped record to the frame under
// construction, flushing when it reaches maxRecords.
func (s *Sender) encodeRecord(rep *core.FlowReport) {
	if s.curRecords == 0 {
		s.cur = AppendHeader(s.cur[:0], Header{Type: FrameData, Vantage: s.cfg.Vantage})
	}
	st := s.stamp(rep.Time)
	r := *rep
	r.Time = st
	s.cur = AppendRecord(s.cur, &r)
	s.curRecords++
	s.curLast = st
	s.met.records.IncRelaxed()
	if s.curRecords >= maxRecords {
		s.flushData()
	}
}

// drainPending encodes the records held back by the sync gate, now
// that stamps are final (offset learned, or timed out).
func (s *Sender) drainPending() {
	for i := range s.pending {
		s.encodeRecord(&s.pending[i])
	}
	s.pending = nil
	s.flushData()
}

// flushData seals the Data frame under construction — assign its
// sequence number, stamp the header with the newest record time,
// checksum — and commits it to the ring and send queue.
func (s *Sender) flushData() {
	if s.curRecords == 0 {
		return
	}
	s.seq++
	patchHeader(s.cur, s.seq, s.curLast)
	FinishFrame(s.cur)
	s.commit(s.cur)
	s.curRecords = 0
}

// patchHeader rewrites the seq and time fields of an encoded header.
func patchHeader(frame []byte, seq uint64, t units.Time) {
	frame[8] = byte(seq >> 56)
	frame[9] = byte(seq >> 48)
	frame[10] = byte(seq >> 40)
	frame[11] = byte(seq >> 32)
	frame[12] = byte(seq >> 24)
	frame[13] = byte(seq >> 16)
	frame[14] = byte(seq >> 8)
	frame[15] = byte(seq)
	u := uint64(t)
	frame[16] = byte(u >> 56)
	frame[17] = byte(u >> 48)
	frame[18] = byte(u >> 40)
	frame[19] = byte(u >> 32)
	frame[20] = byte(u >> 24)
	frame[21] = byte(u >> 16)
	frame[22] = byte(u >> 8)
	frame[23] = byte(u)
}

// commit stores the sealed frame (whose seq is s.seq) in the
// retransmit ring and enqueues it for transmission, shedding the
// oldest queued frame when the queue is full. Shed frames stay in the
// ring: the receiver NACKs the gap and recovers them later — the
// "complete but delayed" degradation mode.
func (s *Sender) commit(frame []byte) {
	s.met.frames.IncRelaxed()
	slot := &s.ring[s.seq%uint64(len(s.ring))]
	slot.seq = s.seq
	slot.buf = append(slot.buf[:0], frame...)
	slot.lastSend = -1 << 62
	slot.retransmit = 0
	s.enqueue(s.seq)
}

func (s *Sender) enqueue(seq uint64) {
	if s.qLen == len(s.queue) {
		// Shed oldest-first; the ring still holds it for NACK recovery.
		s.qHead = (s.qHead + 1) % len(s.queue)
		s.qLen--
		s.met.sheds.IncRelaxed()
	}
	s.queue[(s.qHead+s.qLen)%len(s.queue)] = seq
	s.qLen++
}

// pump drains the send queue onto the channel.
func (s *Sender) pump() {
	for s.qLen > 0 {
		seq := s.queue[s.qHead]
		s.qHead = (s.qHead + 1) % len(s.queue)
		s.qLen--
		slot := &s.ring[seq%uint64(len(s.ring))]
		if slot.seq != seq {
			// Evicted from the ring between queue and pump — only
			// possible after deep shedding; the gap will be abandoned.
			s.met.nackMisses.IncRelaxed()
			continue
		}
		slot.lastSend = s.now
		if err := s.ch.Send(s.now, slot.buf); err != nil {
			s.met.sendErrs.IncRelaxed()
		}
	}
}

// HandleControl processes one reverse-channel datagram (Nack or Sync).
// Malformed or unexpected frames are dropped.
func (s *Sender) HandleControl(now units.Time, dgram []byte) {
	s.noteNow(now)
	h, payload, err := ParseFrame(dgram)
	if err != nil || h.Vantage != s.cfg.Vantage {
		return
	}
	switch h.Type {
	case FrameNack:
		s.handleNack(now, payload)
	case FrameSync:
		s.handleSync(now, payload)
	}
	s.pump()
}

// handleNack re-queues the requested frames from the retransmit ring,
// honouring per-frame exponential backoff so a NACK storm cannot
// amplify into a send storm.
func (s *Sender) handleNack(now units.Time, payload []byte) {
	const maxSeqs = 4096 // bound hostile/huge range work per frame
	n := len(payload) / NackRangeLen
	budget := maxSeqs
	for i := 0; i < n && budget > 0; i++ {
		from, to := DecodeNackRange(payload, i)
		if from == 0 || to <= from {
			continue
		}
		for seq := from; seq < to && budget > 0; seq++ {
			if s.qLen == len(s.queue) {
				// Queue full: stop here rather than enqueue-and-shed.
				// NACK ranges arrive oldest-first and the oldest frames
				// are the ones unblocking the receiver's head of line —
				// shedding them for newer resends would starve recovery.
				// The receiver re-NACKs what we skipped.
				return
			}
			budget--
			slot := &s.ring[seq%uint64(len(s.ring))]
			if slot.seq != seq {
				s.met.nackMisses.IncRelaxed()
				continue
			}
			backoff := ResendBackoff << uint(min(slot.retransmit, 6))
			if now.Sub(slot.lastSend) < backoff {
				continue
			}
			slot.retransmit++
			slot.lastSend = now // refreshed again at pump; anchors backoff now
			s.met.resends.IncRelaxed()
			if seq == s.awaitSeq {
				// The heartbeat we are awaiting a sync reply for was lost
				// and is being recovered: its reply would carry an
				// asymmetric (recovery-inflated) forward delay. Drop the
				// exchange; the next heartbeat syncs cleanly.
				s.awaitSync = -1 << 62
			}
			s.enqueue(seq)
		}
	}
}

// handleSync folds one NTP-style exchange into the clock correction:
// t1 is our heartbeat stamp (already offset-corrected), t2/t3 the
// receiver's arrival/reply stamps, t4 the corrected local reception
// time. Under symmetric delay the residual θ = ((t2−t1)+(t3−t4))/2
// is exactly the remaining clock error, so the first exchange's
// offset += θ cancels a constant skew at once; later exchanges go
// through the clock filter above.
func (s *Sender) handleSync(now units.Time, payload []byte) {
	t1, t2, t3 := DecodeSync(payload)
	if t1 != s.awaitSync {
		return // stale or duplicated reply; only the newest heartbeat's counts
	}
	s.awaitSync = -1 << 62
	t4 := now.Add(s.offset)
	theta := (t2.Sub(t1) + t3.Sub(t4)) / 2
	rtt := t4.Sub(t1) - t3.Sub(t2)
	if rtt < 0 {
		return // reordered/stale sync; a negative RTT can only be junk
	}
	s.met.hbRTT.Observe(int64(rtt))
	s.met.syncs.IncRelaxed()
	sample := syncSample{offset: s.offset + theta, rtt: rtt}
	s.syncs[s.syncCount%syncWindow] = sample
	s.syncCount++
	if !s.haveOffset {
		s.offset += theta
		s.haveOffset = true
		if len(s.pending) > 0 {
			s.drainPending()
		}
		return
	}
	// Newest first, so that of two exchanges equally quick the later one
	// is believed.
	best := sample
	for age := 1; age < min(s.syncCount, syncWindow); age++ {
		if sm := s.syncs[(s.syncCount-1-age)%syncWindow]; sm.rtt < best.rtt {
			best = sm
		}
	}
	if rtt > syncRTTSlack*best.rtt {
		s.met.syncNoisy.IncRelaxed()
		return
	}
	s.offset += max(-syncMaxSlew, min(syncMaxSlew, best.offset-s.offset))
}
