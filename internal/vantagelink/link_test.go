package vantagelink

import (
	"sort"
	"testing"
	"time"

	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/units"
)

// linkNet is a tiny virtual-time harness: channels schedule delivery
// events at now+delay, and run() advances time in fixed steps, firing
// due events at their exact timestamps and ticking both endpoints.
type linkNet struct {
	now    units.Time
	events []linkEvent
}

type linkEvent struct {
	at units.Time
	fn func(at units.Time)
}

// channel returns a Channel delivering into handle after delay.
func (n *linkNet) channel(handle func(units.Time, []byte), delay units.Duration) Channel {
	return ChannelFunc(func(now units.Time, dgram []byte) error {
		cp := append([]byte(nil), dgram...)
		n.events = append(n.events, linkEvent{at: now.Add(delay), fn: func(at units.Time) { handle(at, cp) }})
		return nil
	})
}

// run advances virtual time to until, delivering due events in time
// order (stable for ties) and calling tick after each step.
func (n *linkNet) run(until units.Time, step units.Duration, tick func(now units.Time)) {
	for n.now < until {
		n.now = n.now.Add(step)
		for {
			best := -1
			for i, ev := range n.events {
				if ev.at > n.now {
					continue
				}
				if best == -1 || ev.at < n.events[best].at {
					best = i
				}
			}
			if best == -1 {
				break
			}
			ev := n.events[best]
			n.events = append(n.events[:best], n.events[best+1:]...)
			ev.fn(ev.at)
		}
		if tick != nil {
			tick(n.now)
		}
	}
}

// recordingSink collects everything a vantage delivers.
type recordingSink struct {
	recs    []core.FlowReport
	live    units.Time
	rejoins []uint32
}

func (s *recordingSink) Report(rep *core.FlowReport) { s.recs = append(s.recs, *rep) }
func (s *recordingSink) Live(now units.Time) {
	if now > s.live {
		s.live = now
	}
}
func (s *recordingSink) Rejoin(gen uint32) { s.rejoins = append(s.rejoins, gen) }

// linkPair wires one sender to a receiver through fault gates on the
// data path, with a clean reverse channel for NACK/Sync. The sender's
// host clock reads skew ahead of the net's: every time the pair hands
// the sender is moved by skew, and the channels move the sender's
// times back onto the net's clock.
type linkPair struct {
	net  *linkNet
	s    *Sender
	r    *Receiver
	sink *recordingSink
	gate *FaultGate
	skew units.Duration
}

func newLinkPair(t *testing.T, skew units.Duration, rcfg ReceiverConfig, sched *faults.Schedule, seed int64) *linkPair {
	t.Helper()
	n := &linkNet{}
	r := NewReceiver(rcfg)
	p := &linkPair{net: n, r: r, sink: &recordingSink{}, skew: skew}
	const delay = 20 * units.Microsecond
	fwd := n.channel(r.HandleDatagram, delay)
	p.gate = NewFaultGate(ChannelFunc(func(now units.Time, dgram []byte) error {
		return fwd.Send(now.Add(-skew), dgram)
	}), sched, seed)
	p.s = NewSender(p.gate, SenderConfig{Vantage: 1})
	rev := n.channel(func(at units.Time, dgram []byte) { p.s.HandleControl(p.clock(at), dgram) }, delay)
	r.Join(1, p.sink, rev)
	return p
}

// clock reads the sender host's clock at net time now.
func (p *linkPair) clock(now units.Time) units.Time { return now.Add(p.skew) }

// sendReports feeds count reports through the sender, one per spacing
// step, with virtual time advancing alongside.
func (p *linkPair) sendReports(count int, spacing units.Duration) []units.Time {
	times := make([]units.Time, count)
	sent := 0
	for sent < count {
		p.net.run(p.net.now.Add(spacing), spacing, func(now units.Time) {
			rep := testReport(sent)
			rep.Time = p.clock(now)
			times[sent] = now
			p.s.Report(&rep)
			sent++
			p.s.BatchEnd(p.clock(now))
			p.s.Tick(p.clock(now))
			p.r.Tick(now)
		})
	}
	return times
}

// settle runs the net with only ticks until `until`.
func (p *linkPair) settle(d units.Duration) {
	const step = 50 * units.Microsecond
	p.net.run(p.net.now.Add(d), step, func(now units.Time) {
		p.s.Tick(p.clock(now))
		p.r.Tick(now)
	})
}

func assertRecordsOrdered(t *testing.T, recs []core.FlowReport) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			t.Fatalf("record %d out of order: %v after %v", i, recs[i].Time, recs[i-1].Time)
		}
	}
}

// TestLinkLossRecovery drives 300 reports through a 25% lossy channel
// and asserts the NACK/retransmit loop delivers every record exactly
// once, in order, with no Drain needed.
func TestLinkLossRecovery(t *testing.T) {
	sched := faults.NewSchedule(faults.Rule{
		Kind: faults.KindLoss, From: 0, To: faults.Forever, Prob: 0.25,
	})
	p := newLinkPair(t, 0, ReceiverConfig{}, sched, 42)
	const n = 300
	p.sendReports(n, 50*units.Microsecond)
	p.settle(30 * units.Millisecond)

	if !p.r.Complete() {
		t.Fatalf("receiver not complete: %d gaps, %d buffered-pending records",
			p.r.OutstandingGaps(), p.r.PendingRecords())
	}
	// The final records can still sit behind the watermark; Drain
	// releases them for the count check (order already proven).
	p.r.Drain()
	if len(p.sink.recs) != n {
		t.Fatalf("delivered %d records, want %d", len(p.sink.recs), n)
	}
	assertRecordsOrdered(t, p.sink.recs)
	seen := map[uint16]bool{}
	for _, r := range p.sink.recs {
		if seen[r.Key.SrcPort] {
			t.Fatalf("record for src port %d delivered twice", r.Key.SrcPort)
		}
		seen[r.Key.SrcPort] = true
	}
	if p.s.Resends() == 0 {
		t.Fatal("no resends under 25% loss; the test exercised nothing")
	}
	if p.r.GapsDetected() == 0 {
		t.Fatal("no gaps detected under 25% loss; the test exercised nothing")
	}
	if p.r.Abandoned() != 0 {
		t.Fatalf("%d gaps abandoned; NACK recovery should have caught everything", p.r.Abandoned())
	}
}

// TestLinkDupReorderCorrupt layers duplication, reordering, and
// corruption on the channel: corruption degrades to loss via the CRC,
// duplicates dedup by sequence number, reordering resequences — the
// sink still sees every record exactly once in order.
func TestLinkDupReorderCorrupt(t *testing.T) {
	sched := faults.NewSchedule(
		faults.Rule{Kind: faults.KindDup, From: 0, To: faults.Forever, Prob: 0.2},
		faults.Rule{Kind: faults.KindReorder, From: 0, To: faults.Forever, Prob: 0.2},
		faults.Rule{Kind: faults.KindCorrupt, From: 0, To: faults.Forever, Prob: 0.1},
	)
	p := newLinkPair(t, 0, ReceiverConfig{}, sched, 7)
	const n = 200
	p.sendReports(n, 50*units.Microsecond)
	p.settle(30 * units.Millisecond)
	if !p.r.Complete() {
		t.Fatalf("receiver not complete: %d gaps", p.r.OutstandingGaps())
	}
	p.r.Drain()
	if len(p.sink.recs) != n {
		t.Fatalf("delivered %d records, want %d", len(p.sink.recs), n)
	}
	assertRecordsOrdered(t, p.sink.recs)
	if p.r.DupFrames() == 0 {
		t.Fatal("no duplicate frames seen; dup rule exercised nothing")
	}
	if p.r.met.badFrames.Value() == 0 {
		t.Fatal("no corrupt frames dropped; corrupt rule exercised nothing")
	}
}

// TestLinkClockSyncCancelsSkew gives the sender a +1.5 ms constant
// clock error. Under symmetric constant delay the one-shot NTP-style
// exchange computes the offset exactly, and the sync gate corrects
// even the records produced before the first sync — every delivered
// stamp equals the true report time.
func TestLinkClockSyncCancelsSkew(t *testing.T) {
	const skew = 1500 * units.Microsecond
	p := newLinkPair(t, skew, ReceiverConfig{}, nil, 1)
	const n = 100
	times := p.sendReports(n, 50*units.Microsecond)
	p.settle(10 * units.Millisecond)
	p.r.Drain()

	off, ok := p.s.Offset()
	if !ok {
		t.Fatal("sync never completed")
	}
	if off != -skew {
		t.Fatalf("offset %v, want exactly %v (symmetric constant delay)", off, -skew)
	}
	if len(p.sink.recs) != n {
		t.Fatalf("delivered %d records, want %d", len(p.sink.recs), n)
	}
	for i, rec := range p.sink.recs {
		if rec.Time != times[i] {
			t.Fatalf("record %d stamped %v, want true time %v (skew must cancel)", i, rec.Time, times[i])
		}
	}
	if p.r.LateRecords() != 0 {
		t.Fatalf("%d late records on a clean skew-corrected link", p.r.LateRecords())
	}
}

// TestLinkSyncTimeoutSendsUncorrected kills the reverse channel: the
// sender can never sync, so after syncTimeout it gives up the gate and
// ships records on its raw (skewed) clock rather than holding forever.
func TestLinkSyncTimeoutSendsUncorrected(t *testing.T) {
	const skew = 300 * units.Microsecond
	n := &linkNet{}
	r := NewReceiver(ReceiverConfig{})
	sink := &recordingSink{}
	fwd := n.channel(r.HandleDatagram, 20*units.Microsecond)
	s := NewSender(ChannelFunc(func(now units.Time, dgram []byte) error {
		return fwd.Send(now.Add(-skew), dgram)
	}), SenderConfig{Vantage: 1})
	// Reverse channel: a black hole.
	r.Join(1, sink, ChannelFunc(func(units.Time, []byte) error { return nil }))

	const count = 20
	sent := 0
	n.run(units.Time(10*units.Millisecond), 50*units.Microsecond, func(now units.Time) {
		if sent < count {
			rep := testReport(sent)
			rep.Time = now.Add(skew)
			s.Report(&rep)
			sent++
			s.BatchEnd(now.Add(skew))
		}
		s.Tick(now.Add(skew))
		r.Tick(now)
	})
	r.Drain()
	if _, ok := s.Offset(); ok {
		t.Fatal("offset established with a dead reverse channel")
	}
	if len(sink.recs) != count {
		t.Fatalf("delivered %d records, want %d (sync timeout must release the gate)", len(sink.recs), count)
	}
	// Stamps carry the raw skew — uncorrected but monotone and complete.
	assertRecordsOrdered(t, sink.recs)
}

// TestLinkShedOldestUnderOverload bursts far more frames than the send
// queue holds between pumps: the queue sheds oldest-first without ever
// blocking ingest, and the shed frames remain NACK-recoverable from
// the retransmit ring — complete but delayed.
func TestLinkShedOldestUnderOverload(t *testing.T) {
	p := newLinkPair(t, 0, ReceiverConfig{}, nil, 3)
	// Sync first, so the burst is encoded at once rather than held for
	// the clock exchange.
	p.settle(units.Millisecond)
	if _, ok := p.s.Offset(); !ok {
		t.Fatal("sender not synced before the burst")
	}
	// One giant batch: 300 frames of maxRecords committed before the
	// BatchEnd pump runs, against a queue of queueFrames (256) and a
	// ring of ringFrames (512).
	const n = 300 * maxRecords
	now := p.net.now
	for i := 0; i < n; i++ {
		rep := testReport(i)
		rep.Time = now
		p.s.Report(&rep)
	}
	p.s.BatchEnd(now)
	if p.s.Sheds() == 0 {
		t.Fatal("no frames shed; the overload path was not exercised")
	}
	p.settle(40 * units.Millisecond)
	if !p.r.Complete() {
		t.Fatalf("receiver not complete: %d gaps outstanding", p.r.OutstandingGaps())
	}
	p.r.Drain()
	if len(p.sink.recs) != n {
		t.Fatalf("delivered %d records, want %d (shed frames must be NACK-recoverable)", len(p.sink.recs), n)
	}
	if p.r.Abandoned() != 0 {
		t.Fatalf("%d gaps abandoned; ring should have held all shed frames", p.r.Abandoned())
	}
}

// TestLinkAbandonAfterNackBudget black-holes one specific sequence
// number forever: the receiver NACKs it nackAttempts times, then
// abandons the head-of-line gap and the stream flows on without it.
func TestLinkAbandonAfterNackBudget(t *testing.T) {
	n := &linkNet{}
	r := NewReceiver(ReceiverConfig{})
	sink := &recordingSink{}
	const doomedSeq = 5
	fwd := n.channel(r.HandleDatagram, 20*units.Microsecond)
	drop := ChannelFunc(func(now units.Time, dgram []byte) error {
		if h, _, err := ParseFrame(dgram); err == nil && h.Seq == doomedSeq && h.Type == FrameData {
			return nil // black hole, retransmits included
		}
		return fwd.Send(now, dgram)
	})
	s := NewSender(drop, SenderConfig{Vantage: 1})
	var rev Channel = n.channel(s.HandleControl, 20*units.Microsecond)
	r.Join(1, sink, rev)

	// The head-of-line gap's NACKs back off from nackBackoff, doubling to
	// 64×: its nackAttempts NACKs and the wait after the last take some
	// 100 ms.
	const count = 30
	sent := 0
	n.run(units.Time(150*units.Millisecond), 50*units.Microsecond, func(now units.Time) {
		if sent < count {
			rep := testReport(sent)
			rep.Time = now
			s.Report(&rep)
			sent++
			s.BatchEnd(now)
		}
		s.Tick(now)
		r.Tick(now)
	})
	if r.Abandoned() == 0 {
		t.Fatal("doomed frame never abandoned")
	}
	if !r.Complete() {
		t.Fatalf("receiver stuck: %d gaps after abandonment", r.OutstandingGaps())
	}
	r.Drain()
	// Exactly the doomed frame's records are missing: every batch is one
	// report, so each Data frame carries one record.
	if len(sink.recs) >= count {
		t.Fatalf("delivered %d records; expected the doomed frame's record lost", len(sink.recs))
	}
	if count-len(sink.recs) != 1 {
		t.Fatalf("lost %d records, want exactly 1 (one doomed Data frame of one record)", count-len(sink.recs))
	}
	assertRecordsOrdered(t, sink.recs)
}

// TestLinkPartitionExcludesAndHeals partitions vantage 2's channel for
// 5 ms in a two-vantage fleet: the silent vantage is excluded so the
// healthy one keeps advancing the watermark, and after the heal every
// partition-era record recovers via NACK and delivers exactly once.
// TestLinkQuiesceDrainsTail pins the clean-departure contract: when
// every sender goes silent past HoldTimeout with contiguous streams,
// the receiver drains the merge heap on its own ticks — the stream
// tail must reach the sink without anyone calling Drain. This is the
// planck-collector -report shape: the collector finishes its capture,
// closes the reporter, and exits; the plane-side consumer still has to
// see the final sub-window of records.
func TestLinkQuiesceDrainsTail(t *testing.T) {
	p := newLinkPair(t, 0, ReceiverConfig{HoldTimeout: units.Millisecond}, nil, 1)
	const n = 50
	p.sendReports(n, 50*units.Microsecond)
	// Flush the sender's partial frame, then silence: receiver-only
	// ticks, as if the sending process exited.
	p.s.Flush(p.net.now)
	p.net.run(p.net.now.Add(10*units.Millisecond), 50*units.Microsecond, func(now units.Time) {
		p.r.Tick(now)
	})
	if !p.r.Excluded(1) {
		t.Fatal("silent vantage not excluded after HoldTimeout")
	}
	if got := len(p.sink.recs); got != n {
		t.Fatalf("delivered %d records after quiesce, want %d without Drain (heap=%d)",
			got, n, p.r.PendingRecords())
	}
	if !p.r.Complete() {
		t.Fatalf("receiver not complete after quiesce: %d gaps, %d pending",
			p.r.OutstandingGaps(), p.r.PendingRecords())
	}
	assertRecordsOrdered(t, p.sink.recs)
}

func TestLinkPartitionExcludesAndHeals(t *testing.T) {
	n := &linkNet{}
	r := NewReceiver(ReceiverConfig{HoldTimeout: units.Millisecond})
	sinks := [2]*recordingSink{{}, {}}
	senders := [2]*Sender{}
	const delay = 20 * units.Microsecond
	partStart, partEnd := units.Time(3*units.Millisecond), units.Time(8*units.Millisecond)
	for v := 0; v < 2; v++ {
		v := v
		var sched *faults.Schedule
		if v == 1 {
			sched = faults.NewSchedule(faults.Rule{
				Kind: faults.KindPartition, From: partStart, To: partEnd, Prob: 1,
			})
		}
		gate := NewFaultGate(n.channel(r.HandleDatagram, delay), sched, int64(v+1))
		senders[v] = NewSender(gate, SenderConfig{Vantage: uint16(v + 1)})
		r.Join(uint16(v+1), sinks[v], n.channel(senders[v].HandleControl, delay))
	}

	sent := [2]int{}
	var excludedDuring, includedAfter bool
	var wmDuring units.Time
	n.run(units.Time(25*units.Millisecond), 50*units.Microsecond, func(now units.Time) {
		for v := 0; v < 2; v++ {
			rep := testReport(sent[v])
			rep.Time = now
			senders[v].Report(&rep)
			sent[v]++
			senders[v].BatchEnd(now)
			senders[v].Tick(now)
		}
		r.Tick(now)
		if now > partStart.Add(2*units.Millisecond) && now < partEnd {
			if r.Excluded(2) {
				excludedDuring = true
				wmDuring = r.Watermark()
			}
		}
		if now > partEnd.Add(5*units.Millisecond) && !r.Excluded(2) {
			includedAfter = true
		}
	})
	if !excludedDuring {
		t.Fatal("partitioned vantage never excluded from the watermark")
	}
	if !includedAfter {
		t.Fatal("healed vantage never re-included")
	}
	if wmDuring <= partStart {
		t.Fatalf("watermark %v stalled at partition start %v; the healthy vantage must keep it moving", wmDuring, partStart)
	}
	p := 40 * units.Millisecond
	n.run(n.now.Add(p), 50*units.Microsecond, func(now units.Time) {
		for v := 0; v < 2; v++ {
			senders[v].Tick(now)
		}
		r.Tick(now)
	})
	if !r.Complete() {
		t.Fatalf("receiver not complete after heal: %d gaps", r.OutstandingGaps())
	}
	r.Drain()
	for v := 0; v < 2; v++ {
		if len(sinks[v].recs) != sent[v] {
			t.Fatalf("vantage %d delivered %d of %d records after heal", v+1, len(sinks[v].recs), sent[v])
		}
		times := make([]int64, len(sinks[v].recs))
		for i, rec := range sinks[v].recs {
			times[i] = int64(rec.Time)
		}
		if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
			t.Fatalf("vantage %d records out of order after heal", v+1)
		}
	}
}

// TestLinkRejoinDeliversInSequence interleaves a Rejoin announcement
// into a lossy stream and asserts it arrives exactly once, in stream
// position, with the right generation.
func TestLinkRejoinDeliversInSequence(t *testing.T) {
	sched := faults.NewSchedule(faults.Rule{
		Kind: faults.KindLoss, From: 0, To: faults.Forever, Prob: 0.2,
	})
	p := newLinkPair(t, 0, ReceiverConfig{}, sched, 11)
	const n = 40
	sent := 0
	p.net.run(units.Time(10*units.Millisecond), 50*units.Microsecond, func(now units.Time) {
		if sent < n {
			rep := testReport(sent)
			rep.Time = now
			p.s.Report(&rep)
			sent++
			p.s.BatchEnd(now)
			if sent == n/2 {
				p.s.Rejoin(now, 77)
			}
		}
		p.s.Tick(now)
		p.r.Tick(now)
	})
	p.settle(30 * units.Millisecond)
	if !p.r.Complete() {
		t.Fatalf("receiver not complete: %d gaps", p.r.OutstandingGaps())
	}
	p.r.Drain()
	if len(p.sink.rejoins) != 1 || p.sink.rejoins[0] != 77 {
		t.Fatalf("rejoins %v, want exactly [77]", p.sink.rejoins)
	}
	if len(p.sink.recs) != n {
		t.Fatalf("delivered %d records, want %d", len(p.sink.recs), n)
	}
}

// TestLinkUDPLoopback runs the real-socket wrappers end to end on the
// loopback interface: two UDP senders stream into one UDP receiver,
// clocks sync over the wire, and every record delivers exactly once.
func TestLinkUDPLoopback(t *testing.T) {
	rx, err := ListenUDPReceiver("127.0.0.1:0", ReceiverConfig{
		HoldTimeout: 200 * units.Millisecond, // wall clocks jitter; don't exclude
	}, nil, units.Millisecond)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sinks := [2]*recordingSink{{}, {}}
	for v := 0; v < 2; v++ {
		rx.Join(uint16(v+1), sinks[v])
	}
	const perVantage = 200
	txs := [2]*UDPSender{}
	for v := 0; v < 2; v++ {
		u, err := DialUDPSender(rx.Addr(), SenderConfig{Vantage: uint16(v + 1)}, nil, units.Millisecond, nil)
		if err != nil {
			t.Fatalf("dial %d: %v", v, err)
		}
		txs[v] = u
	}
	clock := NewWallClock()
	for i := 0; i < perVantage; i++ {
		for v := 0; v < 2; v++ {
			rep := testReport(i)
			rep.Time = clock.Now()
			txs[v].Report(&rep)
		}
		if i%16 == 0 {
			for v := 0; v < 2; v++ {
				txs[v].Flush()
			}
		}
	}
	for v := 0; v < 2; v++ {
		txs[v].Flush()
	}
	// Wait until every record has been decoded in sequence (loopback
	// rarely loses, but the tick-driven NACK loop covers it if it does).
	for deadline := 1000; deadline > 0; deadline-- {
		done := false
		rx.Locked(func() {
			done = rx.Receiver().RecordsReceived() >= 2*perVantage && rx.Receiver().Complete()
		})
		if done {
			break
		}
		sleepMs(2)
	}
	for v := 0; v < 2; v++ {
		if err := txs[v].Close(); err != nil {
			t.Fatalf("close sender %d: %v", v, err)
		}
	}
	if err := rx.Close(); err != nil {
		t.Fatalf("close receiver: %v", err)
	}
	for v := 0; v < 2; v++ {
		if len(sinks[v].recs) != perVantage {
			t.Fatalf("vantage %d delivered %d records, want %d", v+1, len(sinks[v].recs), perVantage)
		}
		seen := map[uint16]int{}
		for _, rec := range sinks[v].recs {
			seen[rec.Key.SrcPort]++
		}
		for port, c := range seen {
			if c > 1 {
				t.Fatalf("vantage %d delivered record for src port %d %d times", v+1, port, c)
			}
		}
	}
}

func sleepMs(ms int) { time.Sleep(time.Duration(ms) * time.Millisecond) }

// TestLinkClockFilter hands the sender hand-made sync exchanges. After
// the first (which steps), an exchange stretched by a stall must change
// nothing, a slightly slow one must not outvote a quick one, and a real
// change of the sender's clock must be followed at the slew limit, not
// in one step.
func TestLinkClockFilter(t *testing.T) {
	var skew units.Duration
	var lastFrame []byte
	s := NewSender(ChannelFunc(func(_ units.Time, dgram []byte) error {
		lastFrame = append(lastFrame[:0], dgram...)
		return nil
	}), SenderConfig{Vantage: 1})
	now := units.Time(units.Millisecond)
	var reply []byte
	// exchange sends a heartbeat at now, read skew ahead on the sender's
	// clock, has the receiver (whose clock is true time) see it fwd
	// later and reply at once, and delivers the reply back later still.
	exchange := func(fwd, back units.Duration) units.Duration {
		t.Helper()
		now = now.Add(units.Millisecond)
		s.Tick(now.Add(skew))
		h, _, err := ParseFrame(lastFrame)
		if err != nil || h.Type != FrameHeartbeat {
			t.Fatalf("tick sent no heartbeat: %+v, %v", h, err)
		}
		at := now.Add(fwd)
		reply = AppendHeader(reply[:0], Header{Type: FrameSync, Vantage: 1, Time: at})
		reply = AppendSync(reply, h.Time, at, at)
		FinishFrame(reply)
		s.HandleControl(at.Add(back).Add(skew), reply)
		off, _ := s.Offset()
		return off
	}
	const hop = 20 * units.Microsecond

	skew = 3 * units.Millisecond
	if off := exchange(hop, hop); off != -skew {
		t.Fatalf("first exchange: offset %v, want the whole skew cancelled at once (%v)", off, -skew)
	}
	if off := exchange(10*units.Millisecond, hop); off != -skew {
		t.Fatalf("exchange across a 10 ms stall moved the offset to %v; it must change nothing", off)
	}
	if off := exchange(hop, 10*units.Millisecond); off != -skew {
		t.Fatalf("reply held up by a 10 ms stall moved the offset to %v; it must change nothing", off)
	}
	if off := exchange(5*hop, hop); off != -skew {
		t.Fatalf("a 120 us exchange outvoted the 40 us one: offset %v", off)
	}

	// The sender's clock really changes by 300 us: symmetric exchanges
	// now all say so, and the offset follows 50 us at a time.
	skew += 300 * units.Microsecond
	for i, want := 1, -skew+250*units.Microsecond; i <= 8; i, want = i+1, max(want-50*units.Microsecond, -skew) {
		if off := exchange(hop, hop); off != want {
			t.Fatalf("exchange %d after a 300 us clock change: offset %v, want %v", i, off, want)
		}
	}
}

// TestLinkReleaseAtWatermark pins which records leave the merge heap
// when the watermark reaches their own stamp: all of them with one
// vantage, and with two only those no counted vantage with a smaller
// id could still get ahead of.
func TestLinkReleaseAtWatermark(t *testing.T) {
	r := NewReceiver(ReceiverConfig{})
	sink := &recordingSink{} // shared: recs is the global delivery order
	toReceiver := ChannelFunc(func(now units.Time, d []byte) error { r.HandleDatagram(now, d); return nil })
	var snd [2]*Sender
	for i := range snd {
		snd[i] = NewSender(toReceiver, SenderConfig{Vantage: uint16(i + 1)})
		r.Join(uint16(i+1), sink, toSender(snd[i]))
		syncAtZero(t, snd[i])
	}
	// report sends one single-record frame from vantage v stamped at;
	// the record's Epoch carries v so deliveries can be told apart.
	report := func(v int, at units.Time) {
		rep := testReport(0)
		rep.Time, rep.Epoch = at, uint64(v)
		snd[v-1].Report(&rep)
		snd[v-1].BatchEnd(at)
	}
	want := func(step string, order ...[2]int64) {
		t.Helper()
		var got [][2]int64
		for _, rec := range sink.recs {
			got = append(got, [2]int64{int64(rec.Epoch), int64(rec.Time)})
		}
		if len(got) != len(order) {
			t.Fatalf("%s: delivered %v, want %v", step, got, order)
		}
		for i := range got {
			if got[i] != order[i] {
				t.Fatalf("%s: delivered %v, want %v", step, got, order)
			}
		}
	}

	report(2, 100)
	want("vantage 1 has no clock yet")
	report(1, 100)
	want("both at 100: vantage 1's record is final, vantage 2's could still be preceded by another from 1",
		[2]int64{1, 100})
	report(2, 100)
	want("a second record at 100 from vantage 2 changes nothing", [2]int64{1, 100})
	report(1, 150)
	want("vantage 1 past 100: everything at 100 is final, in sequence order",
		[2]int64{1, 100}, [2]int64{2, 100}, [2]int64{2, 100})
	report(2, 150)
	want("both at 150: vantage 1's first", [2]int64{1, 100}, [2]int64{2, 100}, [2]int64{2, 100}, [2]int64{1, 150})
	if r.LateRecords() != 0 {
		t.Fatalf("%d late records", r.LateRecords())
	}

	// One vantage: a frame's last record leaves with its frame.
	solo := NewReceiver(ReceiverConfig{})
	soloSink := &recordingSink{}
	s := NewSender(ChannelFunc(func(now units.Time, d []byte) error { solo.HandleDatagram(now, d); return nil }),
		SenderConfig{Vantage: 1})
	solo.Join(1, soloSink, toSender(s))
	syncAtZero(t, s)
	for i := 0; i < 3; i++ {
		rep := testReport(i)
		rep.Time = units.Time(200 + i)
		s.Report(&rep)
	}
	s.BatchEnd(202)
	if len(soloSink.recs) != 3 {
		t.Fatalf("one vantage: %d of a frame's 3 records delivered on its arrival; the last must not wait for the next frame", len(soloSink.recs))
	}
}

// toSender is a reverse channel that hands every reply to s at once.
func toSender(s *Sender) Channel {
	return ChannelFunc(func(now units.Time, d []byte) error { s.HandleControl(now, d); return nil })
}

// syncAtZero ticks s at time 0 over a link that answers at once: its
// first heartbeat, unsynced, gets a sync reply showing no offset, so
// every later stamp is final.
func syncAtZero(t *testing.T, s *Sender) {
	t.Helper()
	s.Tick(0)
	if off, ok := s.Offset(); !ok || off != 0 {
		t.Fatalf("sender not synced at zero offset: %v, %v", off, ok)
	}
}
