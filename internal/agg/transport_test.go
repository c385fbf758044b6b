package agg_test

import (
	"fmt"
	"reflect"
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/packet"
	"planck/internal/units"
	"planck/internal/vantagelink"
)

// The transport oracle extends the fleet-vs-global oracle across the
// wire: the same captured sample stream replays through vantage
// collectors whose sink is a vantagelink.Sender feeding one shared
// Receiver over a lossy in-memory channel, driven by a virtual clock.
// After the link drains — every gap NACKed and recovered, the merge
// heap released — the plane's events, utilizations, flow rates, and
// expiry count must still match the monolith to the bit. Loss delays
// federation; it must never change what the fleet concludes.

const (
	pumpDelay = 20 * units.Microsecond  // one-way channel latency
	pumpStep  = 250 * units.Microsecond // endpoint tick cadence
)

type pumpEvent struct {
	at units.Time
	fn func(units.Time)
}

// linkPump is a minimal virtual-time scheduler for the in-memory
// channel: datagrams in flight are events due at send time + delay,
// and endpoint Ticks fire on a fixed cadence between deliveries.
type linkPump struct {
	now      units.Time
	nextTick units.Time
	q        []pumpEvent
	head     int
}

func (p *linkPump) after(d units.Duration, fn func(units.Time)) {
	at := p.now.Add(d)
	i := len(p.q)
	// Constant delay keeps appends monotone; insert-sort is the guard.
	for i > p.head && p.q[i-1].at > at {
		i--
	}
	p.q = append(p.q, pumpEvent{})
	copy(p.q[i+1:], p.q[i:])
	p.q[i] = pumpEvent{at: at, fn: fn}
}

func (p *linkPump) run(to units.Time, tick func(units.Time)) {
	if p.nextTick == 0 {
		p.nextTick = units.Time(pumpStep)
	}
	for p.now < to {
		next := to
		if p.nextTick < next {
			next = p.nextTick
		}
		if p.head < len(p.q) && p.q[p.head].at < next {
			next = p.q[p.head].at
		}
		if next > p.now {
			p.now = next
		}
		for p.head < len(p.q) && p.q[p.head].at <= p.now {
			ev := p.q[p.head]
			p.head++
			ev.fn(p.now)
		}
		if p.now >= p.nextTick {
			tick(p.now)
			p.nextTick = p.nextTick.Add(pumpStep)
		}
	}
}

// planeSink adapts one plane vantage to the receiver's delivery seam.
type planeSink struct{ v *agg.Vantage }

func (a planeSink) Report(rep *core.FlowReport) { a.v.Report(rep) }
func (a planeSink) Live(now units.Time)         { a.v.NoteLive(now) }
func (a planeSink) Rejoin(uint32)               { a.v.Rejoin() }

// skewedSender drives a link sender whose host clock reads skew ahead
// of the harness's: every time the harness hands it moves by skew. As a
// collector's sink it skews the report stamps, as a reverse channel's
// end the sync replies' arrival.
type skewedSender struct {
	*vantagelink.Sender
	skew units.Duration
}

func (s skewedSender) Report(rep *core.FlowReport) {
	r := *rep
	r.Time = r.Time.Add(s.skew)
	s.Sender.Report(&r)
}

func (s skewedSender) BatchEnd(now units.Time) { s.Sender.BatchEnd(now.Add(s.skew)) }
func (s skewedSender) Tick(now units.Time)     { s.Sender.Tick(now.Add(s.skew)) }
func (s skewedSender) HandleControl(now units.Time, dgram []byte) {
	s.Sender.HandleControl(now.Add(s.skew), dgram)
}

type transportOpts struct {
	n         int
	replicate bool
	window    units.Duration
	lossProb  float64
	skew      func(i int) units.Duration // per-vantage sender clock skew
	noSync    bool                       // black-hole sync replies (negative control)
}

type transportFleet struct {
	pump    *linkPump
	plane   *agg.Plane
	recv    *vantagelink.Receiver
	senders []skewedSender
	cols    []*core.Collector
	rep     report
}

// newTransportFleet wires n vantage collectors to one plane over the
// virtual-clock link. end clamps the plane's merge clock: the drain
// phase runs virtual time past the capture, and utilization freshness
// must still be judged at the capture's end, like the monolith's.
func newTransportFleet(ccfg core.Config, mapper core.RouteResolver, o transportOpts, end units.Time) *transportFleet {
	tf := &transportFleet{
		pump:    &linkPump{},
		senders: make([]skewedSender, o.n),
		cols:    make([]*core.Collector, o.n),
	}
	tf.rep = report{rates: map[string]units.Rate{}, utils: make([]units.Rate, ccfg.NumPorts)}
	tf.plane = agg.New(agg.Config{ReorderWindow: o.window, ExternalMergeAdvance: true})
	tf.plane.Subscribe(func(ev core.CongestionEvent) {
		tf.rep.events = append(tf.rep.events, renderEvent(ev))
	})
	tf.recv = vantagelink.NewReceiver(vantagelink.ReceiverConfig{})
	tf.recv.OnAdvance = func(wm units.Time) {
		if wm > end {
			wm = end
		}
		tf.plane.AdvanceMerge(wm)
	}

	var sched *faults.Schedule
	if o.lossProb > 0 {
		sched = faults.NewSchedule(faults.Rule{
			Kind: faults.KindLoss, From: 0, To: faults.Forever, Prob: o.lossProb,
		})
	}
	for i := 0; i < o.n; i++ {
		v := tf.plane.Join(0, ccfg.SwitchName, ccfg.NumPorts, ccfg.LinkRate)
		fwd := vantagelink.ChannelFunc(func(_ units.Time, dgram []byte) error {
			cp := append([]byte(nil), dgram...)
			tf.pump.after(pumpDelay, func(at units.Time) { tf.recv.HandleDatagram(at, cp) })
			return nil
		})
		// Every Ingest is its own batch here, so frames carry one record
		// and the peak frame rate tracks the capture's sample rate
		// (~230/ms during the TCP ramp). The retransmit ring must cover
		// peak rate × worst-case recovery (a few backoff rounds at 10%
		// loss, ~5ms), or the advertised trail overtakes live gaps and
		// recovery degrades to abandonment: the product's 512 frames
		// hold some 12k records at 24 a frame, but only 512 here.
		scfg := vantagelink.SenderConfig{
			Vantage:    uint16(v.ID()),
			SwitchName: ccfg.SwitchName,
			RingFrames: 16384,
		}
		snd := skewedSender{Sender: vantagelink.NewSender(vantagelink.NewFaultGate(fwd, sched, int64(31+i*6151)), scfg)}
		if o.skew != nil {
			snd.skew = o.skew(i)
		}
		rev := vantagelink.ChannelFunc(func(_ units.Time, dgram []byte) error {
			if o.noSync {
				return nil
			}
			cp := append([]byte(nil), dgram...)
			tf.pump.after(pumpDelay, func(at units.Time) { snd.HandleControl(at, cp) })
			return nil
		})
		tf.recv.Join(uint16(v.ID()), planeSink{v: v}, rev)
		v.BindTransport()
		tf.senders[i] = snd

		vc := ccfg
		vc.Sink = snd
		vc.Vantage = int(v.ID())
		tf.cols[i] = core.New(vc)
		tf.cols[i].SetPortMapper(mapper)
	}
	return tf
}

func (tf *transportFleet) tick(now units.Time) {
	for _, s := range tf.senders {
		s.Tick(now)
	}
	tf.recv.Tick(now)
}

// replayTransport pushes the captured stream through the fleet over
// the link, then drains: virtual time keeps running until every gap is
// recovered, the heap force-releases, and the merger flushes.
func replayTransport(t *testing.T, cs *capturedStream, ccfg core.Config, mapper core.RouteResolver, o transportOpts) (*transportFleet, report) {
	t.Helper()
	end := cs.times[cs.n()-1]
	tf := newTransportFleet(ccfg, mapper, o, end)

	var d packet.Decoded
	for i := 0; i < cs.n(); i++ {
		tf.pump.run(cs.times[i], tf.tick)
		fr := cs.frame(i)
		if o.replicate {
			for _, c := range tf.cols {
				if err := c.Ingest(cs.times[i], fr); err != nil {
					t.Fatalf("transport sample %d: %v", i, err)
				}
			}
			continue
		}
		vi := 0
		if err := d.Decode(fr); err == nil {
			if k, ok := d.Flow(); ok {
				vi = int(core.HashFlowKey(k) % uint64(o.n))
			}
		}
		if err := tf.cols[vi].Ingest(cs.times[i], fr); err != nil {
			t.Fatalf("transport sample %d: %v", i, err)
		}
	}

	// Drain: NACK rounds need wall time, so pump in chunks until no
	// gap is outstanding, plus one chunk for the last frames in flight.
	deadline := end.Add(100 * units.Millisecond)
	for tf.pump.now < deadline {
		tf.pump.run(tf.pump.now.Add(units.Duration(units.Millisecond)), tf.tick)
		if tf.recv.OutstandingGaps() == 0 {
			tf.pump.run(tf.pump.now.Add(units.Duration(units.Millisecond)), tf.tick)
			break
		}
	}
	if g := tf.recv.OutstandingGaps(); g != 0 {
		t.Fatalf("%d gaps still outstanding after %v of drain", g, tf.pump.now.Sub(end))
	}
	tf.recv.Drain()
	tf.plane.Flush()
	tf.plane.Tick(end)
	for p := 0; p < ccfg.NumPorts; p++ {
		tf.rep.utils[p] = tf.plane.LinkUtilization(0, p)
	}
	tf.rep.flows = tf.plane.FlowCount()
	tf.plane.EachFlow(func(sw int, fi core.FlowInfo, lastSeen units.Time) {
		if sw != 0 {
			t.Fatalf("EachFlow reported unknown switch %d", sw)
		}
		tf.rep.rates[fi.Key.String()] = fi.Rate
	})
	// Expiry equality is checked at the quiescent end rather than
	// mid-replay: a mid-stream expiry would race reports still in
	// flight on the link, and pumping the link dry mid-stream would
	// push heartbeat stamps past the remaining samples.
	tf.rep.expired = tf.plane.ExpireFlows(end, 2*units.Millisecond)
	return tf, tf.rep
}

// replayGlobalQuiescent is replayGlobal without the mid-replay expiry:
// the transport oracle compares expiry at the drained end instead.
func replayGlobalQuiescent(t *testing.T, cs *capturedStream, ccfg core.Config, mapper core.RouteResolver) report {
	t.Helper()
	rep := report{rates: map[string]units.Rate{}, utils: make([]units.Rate, ccfg.NumPorts)}
	col := core.New(ccfg)
	col.SetPortMapper(mapper)
	col.Subscribe(func(ev core.CongestionEvent) { rep.events = append(rep.events, renderEvent(ev)) })
	for i := 0; i < cs.n(); i++ {
		if err := col.Ingest(cs.times[i], cs.frame(i)); err != nil {
			t.Fatalf("global sample %d: %v", i, err)
		}
	}
	for p := 0; p < ccfg.NumPorts; p++ {
		rep.utils[p] = col.LinkUtilization(p)
	}
	col.Flows(func(f *core.FlowState) {
		rep.flows++
		if r, ok := f.Rate(); ok {
			rep.rates[f.Key.String()] = r
		}
	})
	rep.expired = col.ExpireFlows(cs.times[cs.n()-1], 2*units.Millisecond)
	return rep
}

// monotonizeCapture makes sample times strictly increasing by bumping
// ties forward one nanosecond (cascading). The bit-exactness argument
// leans on distinct record times: they make the receiver's
// cross-vantage merge order equal to capture order, so ties — samples
// landing on the same engine timestamp — are resolved by arrival order
// before BOTH replays see the stream. The comparison stays
// same-input-vs-same-input.
func monotonizeCapture(cs *capturedStream) {
	for i := 1; i < cs.n(); i++ {
		if cs.times[i] <= cs.times[i-1] {
			cs.times[i] = cs.times[i-1] + 1
		}
	}
}

func TestFleetMatchesGlobalOracleOverTransport(t *testing.T) {
	cs, ccfg, mapper := captureStream(t)
	monotonizeCapture(cs)

	global := replayGlobalQuiescent(t, cs, ccfg, mapper)
	if len(global.events) == 0 || len(global.rates) == 0 {
		t.Fatal("scenario produced no events or rates; oracle would be vacuous")
	}
	if global.expired == 0 {
		t.Fatal("end-of-run expiry removed nothing; oracle would be vacuous")
	}

	check := func(name string, tf *transportFleet, got report) {
		t.Helper()
		if !reflect.DeepEqual(got.events, global.events) {
			t.Errorf("%s: events diverge (%d vs %d):\n got %v\nwant %v",
				name, len(got.events), len(global.events), got.events, global.events)
		}
		if !reflect.DeepEqual(got.utils, global.utils) {
			t.Errorf("%s: utils %v != global %v", name, got.utils, global.utils)
		}
		if !reflect.DeepEqual(got.rates, global.rates) {
			t.Errorf("%s: flow rates diverge:\n got %v\nwant %v", name, got.rates, global.rates)
		}
		if got.flows != global.flows {
			t.Errorf("%s: %d merged flow records != global %d", name, got.flows, global.flows)
		}
		if got.expired != global.expired {
			t.Errorf("%s: expired %d != global %d", name, got.expired, global.expired)
		}
		if late := tf.plane.LateReports(); late != 0 {
			t.Errorf("%s: plane dropped %d candidates late", name, late)
		}
		if l := tf.recv.LateRecords(); l != 0 {
			t.Errorf("%s: %d records arrived below the delivery watermark", name, l)
		}
		if a := tf.recv.Abandoned(); a != 0 {
			t.Errorf("%s: %d gaps abandoned; exactness requires full recovery", name, a)
		}
		for i, s := range tf.senders {
			if s.Sheds() != 0 {
				t.Errorf("%s: sender %d shed %d frames under a non-overload replay", name, i, s.Sheds())
			}
		}
	}
	// The lossy run is only meaningful if loss actually hit and the
	// NACK loop actually recovered it.
	requireLoss := func(name string, tf *transportFleet) {
		t.Helper()
		if tf.recv.GapsDetected() == 0 {
			t.Fatalf("%s: no gaps detected; the lossy channel dropped nothing", name)
		}
		resends := int64(0)
		for _, s := range tf.senders {
			resends += s.Resends()
		}
		if resends == 0 {
			t.Fatalf("%s: no retransmits; recovery untested", name)
		}
	}

	tf, got := replayTransport(t, cs, ccfg, mapper, transportOpts{n: 4, lossProb: 0.10})
	check("transport-4-loss10", tf, got)
	requireLoss("transport-4-loss10", tf)
	if tf.plane.DupReports() != 0 {
		t.Errorf("transport-4-loss10: disjoint partition saw %d dup reports", tf.plane.DupReports())
	}

	// Fully overlapping coverage over the lossy link: cross-vantage
	// dedup must still collapse the doubled stream exactly.
	tf, got = replayTransport(t, cs, ccfg, mapper, transportOpts{n: 2, replicate: true, lossProb: 0.05})
	check("transport-overlap-2-loss5", tf, got)
	requireLoss("transport-overlap-2-loss5", tf)
	if tf.plane.SuppressedCandidates() == 0 && tf.plane.DupReports() == 0 {
		t.Error("transport-overlap-2: no duplicate suppression anywhere in the plane")
	}
}

// TestSoakReorderWindow is the skew soak: each vantage's sender clock
// runs off-true by a constant multi-millisecond skew, and the plane runs
// with positive reorder windows. Clock sync must cancel every skew
// exactly, so the fleet's event stream matches the ReorderWindow=0
// unskewed monolith bit for bit at every window size. The negative
// control black-holes sync replies: uncorrected skewed stamps must
// visibly diverge, proving the soak can actually catch a bad clock.
func TestSoakReorderWindow(t *testing.T) {
	cs, ccfg, mapper := captureStream(t)
	monotonizeCapture(cs)

	global := replayGlobalQuiescent(t, cs, ccfg, mapper)
	if len(global.events) == 0 {
		t.Fatal("scenario produced no events; soak would be vacuous")
	}

	skews := []units.Duration{
		2500 * units.Microsecond,
		-1800 * units.Microsecond,
		800 * units.Microsecond,
		-3100 * units.Microsecond,
	}
	skewFn := func(i int) units.Duration { return skews[i%len(skews)] }

	for _, window := range []units.Duration{
		units.Duration(units.Millisecond),
		5 * units.Millisecond,
		20 * units.Millisecond,
	} {
		name := fmt.Sprintf("window-%v", window)
		tf, got := replayTransport(t, cs, ccfg, mapper, transportOpts{
			n: len(skews), window: window, skew: skewFn,
		})
		if !reflect.DeepEqual(got.events, global.events) {
			t.Errorf("%s: skewed fleet events diverge from unskewed oracle (%d vs %d):\n got %v\nwant %v",
				name, len(got.events), len(global.events), got.events, global.events)
		}
		if !reflect.DeepEqual(got.utils, global.utils) {
			t.Errorf("%s: utils %v != global %v", name, got.utils, global.utils)
		}
		if late := tf.plane.LateReports(); late != 0 {
			t.Errorf("%s: plane dropped %d candidates late", name, late)
		}
		for i, s := range tf.senders {
			off, ok := s.Offset()
			if !ok {
				t.Fatalf("%s: sender %d never completed clock sync", name, i)
			}
			if off != -skews[i] {
				t.Errorf("%s: sender %d offset %v; sync must cancel skew %v exactly", name, i, off, skews[i])
			}
		}
	}

	// Negative control: without sync the skews go uncorrected and the
	// merged stream must NOT match — otherwise the soak proves nothing.
	tf, got := replayTransport(t, cs, ccfg, mapper, transportOpts{
		n: len(skews), window: units.Duration(units.Millisecond), skew: skewFn, noSync: true,
	})
	if reflect.DeepEqual(got.events, global.events) {
		t.Error("negative control: unsynced skewed fleet still matched the oracle; the soak cannot detect clock error")
	}
	for i, s := range tf.senders {
		if _, ok := s.Offset(); ok {
			t.Errorf("negative control: sender %d acquired an offset with sync black-holed", i)
		}
	}

	// Events may shift but federation must still function end to end.
	if len(got.events) == 0 {
		t.Error("negative control: no events at all; transport broke rather than degraded")
	}
}
