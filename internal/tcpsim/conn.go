package tcpsim

import (
	"fmt"
	"math"

	"planck/internal/packet"
	"planck/internal/sim"
	"planck/internal/units"
)

// connState tracks the (simplified) TCP state machine: the model supports
// one-way bulk transfers with a real three-way handshake; connections stay
// open once the transfer completes (the flow-table and TE layers treat
// silence as flow death, as the paper's collector does).
type connState uint8

const (
	stateSynSent connState = iota
	stateSynRcvd
	stateEstablished
)

// Conn is one TCP connection endpoint. Senders are created by StartFlow;
// receivers are created automatically when a SYN arrives.
type Conn struct {
	host *Host
	key  connKey

	remoteIP packet.IPv4
	state    connState

	// FlowID attributes segments to workload flows for instrumentation.
	FlowID int32

	iss       uint32 // our initial sequence number
	remoteISS uint32 // theirs

	// --- sender state (payload byte offsets, 64-bit to survive seq wrap) ---
	flowSize  int64
	una64     int64 // lowest unacknowledged payload offset
	nxt64     int64 // next payload offset to send
	cwnd      float64
	ssthresh  float64
	dupacks   int
	inRecov   bool
	recover64 int64

	// SACK scoreboard: spans above una the receiver holds, sorted and
	// disjoint. rtxNext is the recovery retransmission cursor.
	// rtxBarrier marks the highest offset sent before the last timeout;
	// offsets below it must not produce RTT samples (Karn's rule under
	// go-back-N).
	sacked     []span
	rtxDone    []spanAt // spans retransmitted this recovery episode, with send times
	rtxBarrier int64
	probeEv    *sim.Event // recovery probe (TLP-style) timer
	probeH     probeHandler

	// CUBIC state (RFC 8312): wMax is the window at the last reduction,
	// epochStart anchors the cubic clock, kCubic is the time (seconds) to
	// regrow to wMax.
	wMax       float64
	epochStart units.Time
	kCubic     float64

	rto        units.Duration
	srtt       float64 // ns
	rttvar     float64 // ns
	rtoEv      *sim.Event
	rtoH       rtoHandler
	synSentAt  units.Time
	synRetried bool

	timedOff   int64
	timedAt    units.Time
	timedValid bool

	// FIN handshake state: senders emit a FIN once the transfer
	// completes (flow boundaries matter to the collector, §9.2);
	// receivers acknowledge it.
	finSent bool
	finRcvd bool

	// --- receiver state ---
	rcv64       int64
	ooo         []span
	delackCount int
	delackEv    *sim.Event
	delackH     delackHandler

	// --- accounting ---
	StartedAt   units.Time
	CompletedAt units.Time
	Completed   bool
	Retransmits int64
	Timeouts    int64

	// OnComplete fires when the final payload byte is acknowledged.
	OnComplete func(now units.Time, c *Conn)
}

type span struct{ start, end int64 }

// spanAt is a retransmitted span with its send time; coverage expires
// after a reordering window (RACK-style), so retransmissions that were
// themselves lost get resent instead of stranding the connection.
type spanAt struct {
	start, end int64
	at         units.Time
}

type rtoHandler struct{ c *Conn }
type delackHandler struct{ c *Conn }
type probeHandler struct{ c *Conn }

// StartFlow opens a connection from h to dstIP:dstPort and transfers size
// bytes. The destination MAC is resolved through the ARP cache on every
// segment, which is what lets the controller reroute the flow mid-stream
// by repointing the cache at a shadow MAC.
func (h *Host) StartFlow(now units.Time, dstIP packet.IPv4, dstPort uint16, size int64, flowID int32) (*Conn, error) {
	if _, ok := h.LookupNeighbor(dstIP); !ok {
		return nil, fmt.Errorf("tcpsim: %s has no ARP entry for %s", h.name, dstIP)
	}
	key := connKey{remoteIP: dstIP.U32(), remotePort: dstPort, localPort: h.allocPort()}
	c := &Conn{
		host:      h,
		key:       key,
		remoteIP:  dstIP,
		state:     stateSynSent,
		FlowID:    flowID,
		iss:       h.rng.Uint32(),
		flowSize:  size,
		cwnd:      float64(InitialCwndSegments * MSS),
		ssthresh:  1 << 60,
		recover64: -1, // allow the first fast-retransmit at offset 0
		rto:       InitialRTO,
		StartedAt: now,
		synSentAt: now,
	}
	c.rtoH.c = c
	c.delackH.c = c
	c.probeH.c = c
	h.conns[key] = c
	c.emitSyn(now)
	c.armRTO(now)
	return c, nil
}

// acceptConn creates the passive side in response to a SYN.
func (h *Host) acceptConn(now units.Time, key connKey, syn *sim.Packet) *Conn {
	c := &Conn{
		host:      h,
		key:       key,
		remoteIP:  syn.SrcIP,
		state:     stateSynRcvd,
		FlowID:    syn.FlowID,
		iss:       h.rng.Uint32(),
		remoteISS: syn.Seq,
		ssthresh:  1 << 60,
		rto:       InitialRTO,
		StartedAt: now,
	}
	c.rtoH.c = c
	c.delackH.c = c
	c.probeH.c = c
	// The receiver learns the sender's MAC from the SYN so ACKs can flow
	// even without a pre-installed neighbor entry.
	if _, ok := h.LookupNeighbor(syn.SrcIP); !ok {
		h.SetNeighbor(syn.SrcIP, syn.SrcMAC)
	}
	h.conns[key] = c
	return c
}

// --- accessors used by labs and experiments ---

// FlowKey returns the 5-tuple in the sender->receiver direction.
func (c *Conn) FlowKey() packet.FlowKey {
	return packet.FlowKey{
		SrcIP: c.host.ip, DstIP: c.remoteIP,
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Proto: packet.IPProtocolTCP,
	}
}

// BytesAcked returns the sender's cumulative acknowledged payload bytes.
func (c *Conn) BytesAcked() int64 { return c.una64 }

// Duration returns the flow completion time, valid once Completed.
func (c *Conn) Duration() units.Duration { return c.CompletedAt.Sub(c.StartedAt) }

// Goodput returns the flow's average goodput, valid once Completed.
func (c *Conn) Goodput() units.Rate { return units.RateOf(c.flowSize, c.Duration()) }

// --- segment emission ---

func (c *Conn) lookupDstMAC() (packet.MAC, bool) {
	return c.host.LookupNeighbor(c.remoteIP)
}

func (c *Conn) newSegment(flags uint8, seq, ack uint32, payload int) *sim.Packet {
	pkt := c.host.eng.NewPacket()
	pkt.Kind = sim.KindTCP
	pkt.SrcMAC = c.host.mac
	dst, ok := c.lookupDstMAC()
	if !ok {
		// Without a neighbor entry the segment is unroutable; emit to the
		// broadcast MAC so switches drop it (table miss) — mirrors a real
		// stack blocking on ARP, which cannot happen with pre-populated
		// caches.
		dst = packet.BroadcastMAC
	}
	pkt.DstMAC = dst
	pkt.SrcIP = c.host.ip
	pkt.DstIP = c.remoteIP
	pkt.SrcPort = c.key.localPort
	pkt.DstPort = c.key.remotePort
	pkt.Seq = seq
	pkt.Ack = ack
	pkt.TCPFlags = flags
	pkt.PayloadLen = payload
	pkt.WireLen = payload + sim.TCPHeaderBytes
	pkt.FlowID = c.FlowID
	return pkt
}

func (c *Conn) emitSyn(now units.Time) {
	pkt := c.newSegment(packet.TCPSyn, c.iss, 0, 0)
	c.host.sendPacket(now, pkt)
}

func (c *Conn) emitSynAck(now units.Time) {
	pkt := c.newSegment(packet.TCPSyn|packet.TCPAck, c.iss, c.remoteISS+1, 0)
	c.host.sendPacket(now, pkt)
}

// seqForOff maps a payload offset to a wire sequence number (SYN takes 1).
func (c *Conn) seqForOff(off int64) uint32 { return c.iss + 1 + uint32(uint64(off)) }

// ackSeq is the cumulative ACK we advertise to the peer; a received FIN
// occupies one sequence number.
func (c *Conn) ackSeq() uint32 {
	ack := c.remoteISS + 1 + uint32(uint64(c.rcv64))
	if c.finRcvd {
		ack++
	}
	return ack
}

func (c *Conn) emitData(now units.Time, off int64, n int) {
	pkt := c.newSegment(packet.TCPAck, c.seqForOff(off), c.ackSeq(), n)
	c.host.sendPacket(now, pkt)
}

func (c *Conn) emitAck(now units.Time) {
	pkt := c.newSegment(packet.TCPAck, c.seqForOff(c.nxt64), c.ackSeq(), 0)
	c.attachSACK(pkt)
	c.host.sendPacket(now, pkt)
	c.delackCount = 0
	c.cancelDelack()
}

// attachSACK advertises the receiver's out-of-order spans, most recently
// updated first.
func (c *Conn) attachSACK(pkt *sim.Packet) {
	if len(c.ooo) == 0 {
		return
	}
	base := c.remoteISS + 1
	pkt.SACK = make([]sim.SackBlock, 0, len(c.ooo))
	for i := len(c.ooo) - 1; i >= 0; i-- {
		s := c.ooo[i]
		pkt.SACK = append(pkt.SACK, sim.SackBlock{
			Start: base + uint32(uint64(s.start)),
			End:   base + uint32(uint64(s.end)),
		})
	}
}

// --- sender machinery ---

func (c *Conn) mss() int      { return MSS }
func (c *Conn) mssF() float64 { return float64(MSS) }

func (c *Conn) inflight() int64 { return c.nxt64 - c.una64 }

func (c *Conn) window() int64 {
	w := int64(c.cwnd)
	if w > RWnd {
		w = RWnd
	}
	return w
}

// trySend transmits as much data as the window allows. During loss
// recovery no new data is sent — recovery is driven by retransmitHoles.
// After a timeout, nxt64 has been pulled back to una64 (go-back-N) and
// this loop re-sends, skipping spans the SACK scoreboard shows the
// receiver already holds.
func (c *Conn) trySend(now units.Time) {
	if c.state != stateEstablished || c.inRecov {
		return
	}
	sent := false
	for c.nxt64 < c.flowSize && !c.host.txBacklogFull() {
		// Skip data the receiver has SACKed.
		if end, ok := c.sackCovering(c.nxt64); ok {
			c.nxt64 = end
			continue
		}
		n := c.flowSize - c.nxt64
		if n > int64(c.mss()) {
			n = int64(c.mss())
		}
		// Do not transmit past the start of a SACKed span.
		if next := c.nextSackStart(c.nxt64); next >= 0 && c.nxt64+n > next {
			n = next - c.nxt64
		}
		if c.inflight()+n > c.window() {
			break
		}
		if !c.timedValid && c.nxt64 >= c.rtxBarrier {
			c.timedOff = c.nxt64 + n
			c.timedAt = now
			c.timedValid = true
		}
		c.emitData(now, c.nxt64, int(n))
		c.nxt64 += n
		sent = true
	}
	if sent && c.rtoEv == nil {
		c.armRTO(now)
	}
}

// --- SACK scoreboard (sender side) ---

// addSpan merges [start, end) into a sorted, disjoint span list.
func addSpan(spans []span, start, end int64) []span {
	if end <= start {
		return spans
	}
	// Locate the run of spans [i, j) that overlap or touch the new span
	// and absorb them into it.
	i := 0
	for i < len(spans) && spans[i].end < start {
		i++
	}
	j := i
	for j < len(spans) && spans[j].start <= end {
		if spans[j].start < start {
			start = spans[j].start
		}
		if spans[j].end > end {
			end = spans[j].end
		}
		j++
	}
	if i == j {
		// Pure insertion at i.
		spans = append(spans, span{})
		copy(spans[i+1:], spans[i:])
		spans[i] = span{start, end}
		return spans
	}
	spans[i] = span{start, end}
	return append(spans[:i+1], spans[j:]...)
}

// pruneSpans drops spans at or below floor.
func pruneSpans(spans []span, floor int64) []span {
	out := spans[:0]
	for _, s := range spans {
		if s.end > floor {
			if s.start < floor {
				s.start = floor
			}
			out = append(out, s)
		}
	}
	return out
}

// addSack merges [start, end) into the SACK scoreboard.
func (c *Conn) addSack(start, end int64) {
	if end <= c.una64 {
		return
	}
	if start < c.una64 {
		start = c.una64
	}
	c.sacked = addSpan(c.sacked, start, end)
}

// pruneSack drops scoreboard state at or below una.
func (c *Conn) pruneSack() {
	c.sacked = pruneSpans(c.sacked, c.una64)
	out := c.rtxDone[:0]
	for _, s := range c.rtxDone {
		if s.end > c.una64 {
			out = append(out, s)
		}
	}
	c.rtxDone = out
}

// sackCovering reports whether off falls inside a SACKed span, returning
// the span's end.
func (c *Conn) sackCovering(off int64) (int64, bool) {
	return spanCovering(c.sacked, off)
}

// sackedBytes totals the scoreboard coverage above una.
func (c *Conn) sackedBytes() int64 {
	var n int64
	for _, s := range c.sacked {
		n += s.end - s.start
	}
	return n
}

// nextSackStart returns the start of the first SACKed span strictly above
// off, or -1.
func (c *Conn) nextSackStart(off int64) int64 {
	for _, s := range c.sacked {
		if s.start > off {
			return s.start
		}
	}
	return -1
}

// emitRetransmit resends one segment at off, bounded by the next SACKed
// span, and returns the bytes sent.
func (c *Conn) emitRetransmit(now units.Time, off int64) int64 {
	if off >= c.flowSize {
		return 0 // the slot past the payload is the FIN, not data
	}
	n := c.nxt64 - off
	if n > c.flowSize-off {
		n = c.flowSize - off
	}
	if n > int64(c.mss()) {
		n = int64(c.mss())
	}
	if next := c.nextSackStart(off); next >= 0 && off+n > next {
		n = next - off
	}
	if n <= 0 {
		return 0
	}
	c.Retransmits++
	c.timedValid = false // Karn
	c.emitData(now, off, int(n))
	return n
}

// reoWnd is the RACK-style reordering window: a retransmission older than
// this is presumed lost and eligible to be sent again. SRTT freezes
// during recovery (Karn's rule) while the true path RTT inflates with
// queueing, so the floor must cover several milliseconds of switch
// buffering or the sender re-sends in-flight retransmissions in waves.
func (c *Conn) reoWnd() units.Duration {
	return units.Duration(maxF(2*c.srtt, float64(6*units.Millisecond)))
}

// nextHole returns the lowest offset at or above from that is neither
// SACKed nor covered by a fresh retransmission, or -1 when the loss
// window is fully covered.
func (c *Conn) nextHole(now units.Time, from int64) int64 {
	off := from
	horizon := now.Add(-c.reoWnd())
	for off < c.recover64 && off < c.nxt64 {
		if end, ok := spanCovering(c.sacked, off); ok {
			off = end
			continue
		}
		if end, ok := c.rtxCovering(off, horizon); ok {
			off = end
			continue
		}
		return off
	}
	return -1
}

// rtxCovering reports whether off is covered by a retransmission sent
// after horizon.
func (c *Conn) rtxCovering(off int64, horizon units.Time) (int64, bool) {
	for _, s := range c.rtxDone {
		if s.start <= off && off < s.end && s.at.After(horizon) {
			return s.end, true
		}
	}
	return 0, false
}

// markRtx records a retransmission of [start, end) at time now, replacing
// any older overlapping records.
func (c *Conn) markRtx(start, end int64, now units.Time) {
	out := c.rtxDone[:0]
	for _, s := range c.rtxDone {
		if s.end <= start || s.start >= end {
			out = append(out, s)
		}
	}
	c.rtxDone = append(out, spanAt{start: start, end: end, at: now})
}

// spanCovering reports whether off falls inside one of the sorted spans,
// returning that span's end.
func spanCovering(spans []span, off int64) (int64, bool) {
	for _, s := range spans {
		if s.start > off {
			return 0, false
		}
		if off < s.end {
			return s.end, true
		}
	}
	return 0, false
}

// recoverySend drives loss recovery, a simplified RFC 6675:
// retransmissions are ACK-clocked — every arriving ACK (duplicate or
// partial) grants a budget of segments — and always target the lowest
// hole above the cumulative ACK that has not been retransmitted this
// episode (the scoreboard's "retransmitted" bit, held in rtxDone). Two
// safety valves cover what pure ACK clocking cannot: a head-rescue timer
// re-sends the leading hole when it has been outstanding longer than
// ~SRTT (its retransmission was itself dropped), and the loss window is
// re-swept once per cumulative advance.
func (c *Conn) recoverySend(now units.Time, budget int) {
	for budget > 0 && !c.host.txBacklogFull() {
		off := c.nextHole(now, c.una64)
		if off < 0 {
			break
		}
		n := c.emitRetransmit(now, off)
		if n <= 0 {
			break
		}
		c.markRtx(off, off+n, now)
		budget--
	}
	c.armProbe(now)
}

// armProbe schedules a recovery probe one reordering window out. It fires
// only if the connection is still in recovery, re-driving recoverySend
// when incoming ACKs have dried up (every outstanding retransmission was
// lost) — the intermediate backstop between ACK clocking and the RTO.
func (c *Conn) armProbe(now units.Time) {
	if !c.inRecov {
		return
	}
	c.cancelProbe()
	c.probeEv = c.host.eng.After(c.reoWnd()+units.Duration(500*units.Microsecond), &c.probeH, nil)
}

func (c *Conn) cancelProbe() {
	if c.probeEv != nil {
		c.host.eng.Cancel(c.probeEv)
		c.probeEv = nil
	}
}

// Handle implements sim.Handler: the recovery probe fired.
func (p *probeHandler) Handle(now units.Time, _ *sim.Packet) {
	c := p.c
	c.probeEv = nil
	if !c.inRecov {
		return
	}
	c.recoverySend(now, 2)
}

func (c *Conn) armRTO(now units.Time) {
	c.cancelRTO()
	c.rtoEv = c.host.eng.After(c.rto, &c.rtoH, nil)
}

func (c *Conn) cancelRTO() {
	if c.rtoEv != nil {
		c.host.eng.Cancel(c.rtoEv)
		c.rtoEv = nil
	}
}

// Handle implements sim.Handler: retransmission timeout.
func (r *rtoHandler) Handle(now units.Time, _ *sim.Packet) {
	c := r.c
	c.rtoEv = nil
	switch c.state {
	case stateSynSent:
		c.synRetried = true
		c.Timeouts++
		c.emitSyn(now)
		c.backoffRTO()
		c.armRTO(now)
	case stateEstablished:
		if c.inflight() <= 0 {
			return
		}
		if c.finSent && c.una64 >= c.flowSize {
			// Only the FIN is outstanding: resend it.
			c.Timeouts++
			pkt := c.newSegment(packet.TCPFin|packet.TCPAck, c.seqForOff(c.flowSize), c.ackSeq(), 0)
			c.host.sendPacket(now, pkt)
			c.backoffRTO()
			c.armRTO(now)
			return
		}
		c.Timeouts++
		// RFC 5681 timeout response: collapse to one segment, re-enter
		// slow start, back off the timer, and go-back-N — pull the send
		// cursor back to the left window edge so trySend re-sends
		// everything unSACKed (real stacks mark all outstanding data
		// lost on RTO).
		c.ssthresh = c.lossReduction()
		c.cwnd = c.mssF()
		c.inRecov = false
		c.cancelProbe()
		c.dupacks = 0
		if c.nxt64 > c.rtxBarrier {
			c.rtxBarrier = c.nxt64
		}
		c.nxt64 = c.una64
		c.timedValid = false
		c.backoffRTO()
		c.trySend(now)
		c.armRTO(now)
	}
}

func (c *Conn) backoffRTO() {
	c.rto *= 2
	if max := 60 * units.Second; c.rto > max {
		c.rto = max
	}
}

// sampleRTT folds a measurement into SRTT/RTTVAR per RFC 6298.
func (c *Conn) sampleRTT(r units.Duration) {
	m := float64(r)
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
	} else {
		d := c.srtt - m
		if d < 0 {
			d = -d
		}
		c.rttvar = 0.75*c.rttvar + 0.25*d
		c.srtt = 0.875*c.srtt + 0.125*m
	}
	rto := units.Duration(c.srtt + maxF(float64(units.Millisecond), 4*c.rttvar))
	if rto < MinRTO {
		rto = MinRTO
	}
	c.rto = rto
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// --- inbound segment processing ---

func (c *Conn) segmentArrived(now units.Time, pkt *sim.Packet) {
	switch c.state {
	case stateSynSent:
		if pkt.TCPFlags&(packet.TCPSyn|packet.TCPAck) == packet.TCPSyn|packet.TCPAck &&
			pkt.Ack == c.iss+1 {
			c.remoteISS = pkt.Seq
			c.state = stateEstablished
			c.cancelRTO()
			if !c.synRetried {
				c.sampleRTT(now.Sub(c.synSentAt))
			}
			if c.flowSize > 0 {
				c.trySend(now)
			} else {
				c.emitAck(now)
			}
			if c.flowSize == 0 {
				c.complete(now)
			}
		}
		return
	case stateSynRcvd:
		if pkt.TCPFlags&packet.TCPSyn != 0 && pkt.TCPFlags&packet.TCPAck == 0 {
			// Duplicate SYN: our SYN-ACK was lost; resend.
			c.emitSynAck(now)
			return
		}
		if pkt.TCPFlags&packet.TCPAck != 0 && pkt.Ack == c.iss+1 {
			c.state = stateEstablished
			// Fall through to process any piggybacked data.
		} else {
			return
		}
	}

	if pkt.TCPFlags&packet.TCPSyn != 0 {
		if pkt.TCPFlags&packet.TCPAck == 0 && c.state == stateSynRcvd {
			c.emitSynAck(now)
		}
		return
	}

	if pkt.TCPFlags&packet.TCPAck != 0 && c.flowSize > 0 {
		c.processAck(now, pkt)
	}
	if pkt.PayloadLen > 0 {
		c.processData(now, pkt)
	}
	if pkt.TCPFlags&packet.TCPFin != 0 && !c.finRcvd {
		// Accept the FIN only once all payload before it has arrived.
		base := c.remoteISS + 1
		finOff := c.rcv64 + int64(int32(pkt.Seq-(base+uint32(uint64(c.rcv64)))))
		if finOff <= c.rcv64 {
			c.finRcvd = true
			c.emitAck(now)
		}
	}
}

// processAck drives the SACK-based sender (a simplified RFC 6675: fast
// retransmit entry on three duplicate ACKs, then ACK-clocked hole
// retransmission guided by the scoreboard).
func (c *Conn) processAck(now units.Time, pkt *sim.Packet) {
	// Fold in any SACK blocks, translating wire sequence numbers to
	// 64-bit payload offsets relative to the left window edge. Whether
	// the blocks taught us anything decides below if a duplicate ACK
	// counts toward fast retransmit (RFC 6675): re-ACKs triggered by our
	// own duplicate retransmissions carry no new SACK information and
	// must not re-arm recovery, or reroute-induced reordering degrades
	// into a self-sustaining retransmission loop.
	before := c.sackedBytes()
	for _, b := range pkt.SACK {
		start := c.una64 + int64(int32(b.Start-c.seqForOff(c.una64)))
		end := start + int64(int32(b.End-b.Start))
		c.addSack(start, end)
	}
	sackGrew := c.sackedBytes() > before

	// Translate the 32-bit cumulative ACK into a 64-bit payload offset.
	delta := int32(pkt.Ack - c.seqForOff(c.una64))
	switch {
	case delta > 0:
		acked := int64(delta)
		if c.una64+acked > c.nxt64 {
			acked = c.nxt64 - c.una64 // ACK beyond what we sent: clamp
			if acked <= 0 {
				return
			}
		}
		c.una64 += acked
		c.pruneSack()
		c.dupacks = 0
		if c.timedValid && c.una64 >= c.timedOff {
			c.sampleRTT(now.Sub(c.timedAt))
			c.timedValid = false
		}
		if c.inRecov {
			if c.una64 >= c.recover64 {
				// Full acknowledgment: leave recovery.
				c.inRecov = false
				c.cancelProbe()
				c.sacked = c.sacked[:0]
				c.rtxDone = c.rtxDone[:0]
				c.cwnd = c.ssthresh
			} else {
				// Partial ACK: grant a budget proportional to the data
				// that left the network so hole-filling ramps up.
				budget := int(acked/int64(c.mss())) + 1
				if budget > 8 {
					budget = 8
				}
				c.recoverySend(now, budget)
			}
		} else if c.cwnd < c.ssthresh {
			// Slow start with appropriate byte counting (RFC 3465, L=2).
			inc := float64(acked)
			if lim := 2 * c.mssF(); inc > lim {
				inc = lim
			}
			c.cwnd += inc
		} else {
			c.congestionAvoidance(now)
		}
		if c.inflight() > 0 {
			c.armRTO(now)
		} else {
			c.cancelRTO()
		}
		if !c.Completed && c.una64 >= c.flowSize {
			c.complete(now)
		}
		c.trySend(now)

	case delta == 0 && c.inflight() > 0:
		if !sackGrew {
			return // no new information: not a loss indication
		}
		c.dupacks++
		if c.inRecov {
			// Each duplicate ACK signals a packet left the network.
			c.recoverySend(now, 1)
		} else if c.dupacks >= 3 && c.una64 >= c.recover64 {
			// The recover64 guard (RFC 6582) stops stale duplicate ACKs
			// from the previous loss window re-triggering recovery and
			// collapsing ssthresh repeatedly. recover64 is one past the
			// highest offset sent at the last loss, so una64 equal to it
			// means the old window is fully acknowledged and new duplicate
			// ACKs must concern fresh data.
			c.ssthresh = c.lossReduction()
			c.recover64 = c.nxt64
			c.inRecov = true
			c.cwnd = c.ssthresh
			c.rtxDone = c.rtxDone[:0]
			c.recoverySend(now, 3)
			c.armRTO(now)
		}
	}
}

// processData drives the receiver: in-order delivery, out-of-order
// buffering with dup-ACKs, and delayed ACKs.
func (c *Conn) processData(now units.Time, pkt *sim.Packet) {
	base := c.remoteISS + 1
	off := c.rcv64 + int64(int32(pkt.Seq-(base+uint32(uint64(c.rcv64)))))
	end := off + int64(pkt.PayloadLen)

	switch {
	case off <= c.rcv64 && end > c.rcv64:
		// In-order (possibly partially duplicate) data.
		c.rcv64 = end
		c.drainOOO()
		c.delackCount++
		// A sub-MSS segment usually ends a send burst; acknowledging it
		// immediately avoids stranding flow tails on the delack timer.
		if c.delackCount >= DelAckSegments || len(c.ooo) > 0 ||
			pkt.PayloadLen < c.mss() {
			c.emitAck(now)
		} else {
			c.armDelack(now)
		}
	case end <= c.rcv64:
		// Entirely old (a retransmission we already have): re-ACK now.
		c.emitAck(now)
	default:
		// A hole precedes this segment: buffer and dup-ACK immediately.
		c.insertOOO(off, end)
		c.emitAck(now)
	}
}

// insertOOO records an out-of-order segment. The touched span moves to
// the back of the list so attachSACK can report the most recently updated
// blocks first, as RFC 2018 requires — without this, a sender facing more
// holes than three SACK blocks can describe never learns most of them.
func (c *Conn) insertOOO(start, end int64) {
	for i := range c.ooo {
		s := c.ooo[i]
		if start <= s.end && end >= s.start {
			if start < s.start {
				s.start = start
			}
			if end > s.end {
				s.end = end
			}
			c.ooo = append(c.ooo[:i], c.ooo[i+1:]...)
			c.ooo = append(c.ooo, s)
			return
		}
	}
	c.ooo = append(c.ooo, span{start, end})
}

func (c *Conn) drainOOO() {
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(c.ooo); i++ {
			s := c.ooo[i]
			if s.start <= c.rcv64 {
				if s.end > c.rcv64 {
					c.rcv64 = s.end
				}
				c.ooo[i] = c.ooo[len(c.ooo)-1]
				c.ooo = c.ooo[:len(c.ooo)-1]
				changed = true
				i--
			}
		}
	}
}

func (c *Conn) armDelack(now units.Time) {
	if c.delackEv == nil {
		c.delackEv = c.host.eng.After(DelAckTimeout, &c.delackH, nil)
	}
}

func (c *Conn) cancelDelack() {
	if c.delackEv != nil {
		c.host.eng.Cancel(c.delackEv)
		c.delackEv = nil
	}
}

// Handle implements sim.Handler: the delayed-ACK timer fired.
func (d *delackHandler) Handle(now units.Time, _ *sim.Packet) {
	c := d.c
	c.delackEv = nil
	if c.delackCount > 0 {
		c.emitAck(now)
	}
}

// CUBIC constants (RFC 8312).
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// lossReduction computes the new ssthresh on a loss event and records
// the CUBIC epoch state. Under Reno it is the classic halving.
func (c *Conn) lossReduction() float64 {
	inflight := maxF(float64(c.inflight()), c.mssF())
	if c.host.reno {
		return maxF(inflight/2, 2*c.mssF())
	}
	// Fast convergence: if this loss came below the previous wMax, the
	// flow is ceding bandwidth; remember a slightly lower ceiling.
	w := maxF(c.cwnd, inflight)
	if w < c.wMax {
		c.wMax = w * (2 - cubicBeta) / 2
	} else {
		c.wMax = w
	}
	c.epochStart = 0 // new epoch starts at the next CA ACK
	return maxF(w*cubicBeta, 2*c.mssF())
}

// congestionAvoidance grows cwnd per ACK: CUBIC window curve with the
// TCP-friendly (Reno-equivalent) floor, or plain Reno on a reno host.
func (c *Conn) congestionAvoidance(now units.Time) {
	mss := c.mssF()
	if c.host.reno {
		c.cwnd += mss * mss / c.cwnd
		return
	}
	rtt := c.srtt / float64(units.Second) // seconds
	if rtt <= 0 {
		rtt = 200e-6
	}
	if c.epochStart == 0 {
		c.epochStart = now
		if c.wMax < c.cwnd {
			c.wMax = c.cwnd
		}
		// K = cbrt(Wmax*(1-beta)/C), with windows in segments.
		c.kCubic = math.Cbrt(c.wMax / mss * (1 - cubicBeta) / cubicC)
	}
	t := now.Sub(c.epochStart).Seconds() + rtt // project one RTT ahead
	dt := t - c.kCubic
	targetSeg := cubicC*dt*dt*dt + c.wMax/mss
	target := targetSeg * mss
	// RFC 8312 caps the per-RTT ramp at 1.5x the current window.
	if target > 1.5*c.cwnd {
		target = 1.5 * c.cwnd
	}
	// TCP-friendly region: never slower than an AIMD flow with the same
	// loss history (RFC 8312 §4.2).
	tcpFriendly := c.wMax*cubicBeta + 3*(1-cubicBeta)/(1+cubicBeta)*(t/rtt)*mss
	if target < tcpFriendly {
		target = tcpFriendly
	}
	if target > c.cwnd {
		c.cwnd += (target - c.cwnd) / (c.cwnd / mss)
	} else {
		// Below the curve: creep forward slowly (RFC: 1% of cwnd per RTT
		// scale); approximate with a tiny per-ACK increment.
		c.cwnd += mss * mss / (100 * c.cwnd)
	}
}

func (c *Conn) complete(now units.Time) {
	c.Completed = true
	c.CompletedAt = now
	c.cancelRTO()
	if c.OnComplete != nil {
		c.OnComplete(now, c)
	}
	c.sendFin(now)
}

// sendFin closes the transfer direction: the FIN consumes one sequence
// number past the payload, so nxt64 advances and the normal ACK/RTO
// machinery covers its delivery.
func (c *Conn) sendFin(now units.Time) {
	if c.finSent || c.flowSize == 0 {
		return
	}
	c.finSent = true
	pkt := c.newSegment(packet.TCPFin|packet.TCPAck, c.seqForOff(c.flowSize), c.ackSeq(), 0)
	c.host.sendPacket(now, pkt)
	c.nxt64 = c.flowSize + 1
	c.armRTO(now)
}
