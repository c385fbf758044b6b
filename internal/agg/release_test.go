package agg_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/units"
	"planck/internal/vantagelink"
)

// One order: the link receiver releases records in final (time,
// vantage, seq) order and the plane emits each candidate as its report
// arrives. These tests encode synthetic per-vantage report streams with
// real link senders and deliver the frames to a receiver wired to the
// plane — no collector, no channel.

const relPorts = 4

// relReport is an over- or under-threshold rate update for one of two
// flows on (vantage's switch, port).
func relReport(sw, port, flow int, t units.Time, rate units.Rate) core.FlowReport {
	return core.FlowReport{
		Time: t,
		Key: packet.FlowKey{
			SrcIP:   packet.IPv4{10, byte(sw), byte(port), byte(flow)},
			DstIP:   packet.IPv4{10, 9, 9, 9},
			SrcPort: uint16(1000 + flow), DstPort: 5001,
			Proto: packet.IPProtocolTCP,
		},
		OutPort: port, Epoch: 1,
		Rate: rate, RateOK: true, RateUpdated: true,
	}
}

func relPlane(events *[]string) (*agg.Plane, func(sw int) *agg.Vantage) {
	p := agg.New(agg.Config{})
	p.Subscribe(func(ev core.CongestionEvent) { *events = append(*events, renderEvent(ev)) })
	return p, func(sw int) *agg.Vantage {
		v := p.Join(sw, fmt.Sprintf("sw%d", sw), relPorts, units.Rate10G)
		v.BindTransport()
		return v
	}
}

// relItem is one thing a vantage's link delivers: a report, a heartbeat
// (liveness and a wall-clock stamp, no data), or a restart notice.
type relItem struct {
	at        units.Time // report time, or the heartbeat's stamp
	vantage   int
	heartbeat bool
	rejoin    bool
	rep       core.FlowReport
}

// relStreams builds each vantage's in-order stream: reports at its own
// cadence whose rates take the ports above and below the 90 % threshold
// at random. Vantage 0 goes idle (heartbeats only, stamped captureLag
// ahead of where its data stamps would be) for the middle of the run;
// the last vantage restarts a third of the way in.
func relStreams(rng *rand.Rand, nv int, end units.Time) [][]relItem {
	const captureLag = 300 * units.Microsecond
	cadences := []units.Duration{37 * units.Microsecond, 113 * units.Microsecond, 260 * units.Microsecond, 71 * units.Microsecond}
	streams := make([][]relItem, nv)
	for v := 0; v < nv; v++ {
		idleFrom, idleTo := units.Time(-1), units.Time(-1)
		if v == 0 {
			idleFrom, idleTo = end/5, end*3/5
		}
		rejoinAt := units.Time(-1)
		if v == nv-1 {
			rejoinAt = end / 3
		}
		nextHB := units.Time(0)
		for t := units.Time(1000 + 7*v); t < end; t = t.Add(cadences[v]) {
			if rejoinAt >= 0 && t >= rejoinAt {
				streams[v] = append(streams[v], relItem{at: t, vantage: v, rejoin: true})
				rejoinAt = -1
			}
			if t >= idleFrom && t < idleTo {
				if t >= nextHB {
					streams[v] = append(streams[v], relItem{at: t.Add(captureLag), vantage: v, heartbeat: true})
					// A sender heartbeats at most once a millisecond of its
					// own clock; relTick's 50 µs clock reads up to 50 µs
					// short, so space the ticks by that much more.
					nextHB = t.Add(units.Millisecond + relTick)
				}
				continue
			}
			rate := units.Rate(rng.Int63n(6_000_000_000))
			rep := relReport(v, rng.Intn(relPorts), rng.Intn(2), t, rate)
			streams[v] = append(streams[v], relItem{at: t, vantage: v, rep: rep})
		}
	}
	return streams
}

// relFrame is one datagram a vantage's sender emitted, with the
// virtual time it left.
type relFrame struct {
	at    units.Time
	dgram []byte
}

// relTick is the resolution of the coarse sender clocks.
const relTick = 50 * units.Microsecond

// relEncode runs one vantage's stream through a real link sender and
// returns its frames in sequence order. The sender's first heartbeat,
// at time 0, is answered with a sync showing no offset, so every later
// stamp is final (clamped monotone), and heartbeats are synced and
// advance the receiver's watermark. A positive tick gives the sender a
// clock that reads in whole ticks, so equal stamps within and across
// vantages are common. A frame is flushed after a third of the reports,
// at random, so frames carry one record or several. It returns the
// frames and how many heartbeats the stream's ticks sent.
func relEncode(t *testing.T, rng *rand.Rand, id uint16, stream []relItem, tick units.Duration) ([]relFrame, int) {
	t.Helper()
	var frames []relFrame
	snd := vantagelink.NewSender(vantagelink.ChannelFunc(func(now units.Time, dgram []byte) error {
		frames = append(frames, relFrame{at: now, dgram: append([]byte(nil), dgram...)})
		return nil
	}), vantagelink.SenderConfig{Vantage: id})
	clock := func(at units.Time) units.Time {
		if tick > 0 {
			at -= at % units.Time(tick)
		}
		return at
	}
	snd.Tick(0)
	h, _, err := vantagelink.ParseFrame(frames[0].dgram)
	if err != nil || h.Type != vantagelink.FrameHeartbeat {
		t.Fatalf("vantage %d: first tick sent no heartbeat: %+v, %v", id, h, err)
	}
	reply := vantagelink.AppendHeader(nil, vantagelink.Header{Type: vantagelink.FrameSync, Vantage: id, Time: h.Time})
	reply = vantagelink.AppendSync(reply, h.Time, h.Time, h.Time)
	vantagelink.FinishFrame(reply)
	snd.HandleControl(0, reply)
	if off, ok := snd.Offset(); !ok || off != 0 {
		t.Fatalf("vantage %d: not synced at zero offset: %v, %v", id, off, ok)
	}
	beats := 0
	for i := range stream {
		switch it := &stream[i]; {
		case it.rejoin:
			snd.Rejoin(clock(it.at), 1)
		case it.heartbeat:
			before := len(frames)
			snd.Tick(clock(it.at))
			for _, f := range frames[before:] {
				if h, _, err := vantagelink.ParseFrame(f.dgram); err == nil && h.Type == vantagelink.FrameHeartbeat {
					beats++
				}
			}
		default:
			rep := it.rep
			rep.Time = clock(rep.Time)
			snd.Report(&rep)
			if rng.Intn(3) == 0 || i == len(stream)-1 {
				snd.BatchEnd(clock(it.at))
			}
		}
	}
	return frames, beats
}

// relStamped decodes the records and rejoins in a vantage's frames as
// the sender stamped them, in sequence order.
func relStamped(t *testing.T, v int, frames []relFrame) []relItem {
	t.Helper()
	var out []relItem
	for _, f := range frames {
		h, payload, err := vantagelink.ParseFrame(f.dgram)
		if err != nil {
			t.Fatalf("vantage %d: own frame does not parse: %v", v, err)
		}
		switch h.Type {
		case vantagelink.FrameData:
			for i := 0; i+vantagelink.RecordLen <= len(payload); i += vantagelink.RecordLen {
				it := relItem{vantage: v}
				vantagelink.DecodeRecord(payload[i:], &it.rep)
				it.at = it.rep.Time
				out = append(out, it)
			}
		case vantagelink.FrameRejoin:
			out = append(out, relItem{at: h.Time, vantage: v, rejoin: true})
		}
	}
	return out
}

// TestReleaseRuleMatchesInOrderOracle encodes each vantage's stream
// with a real link sender and delivers the frames to a receiver in a
// random cross-vantage interleaving, the plane wired to the receiver's
// watermark through OnAdvance. The oracle is a plane fed the same
// records as stamped, in global time order (vantage, then sequence,
// breaking ties). The receiver's order is the only order: the two must
// emit the same events, and nothing may be dropped late. Each stream
// set runs twice: on the senders' exact clocks, and on 50 µs clocks
// whose equal stamps exercise the receiver's tie-break.
func TestReleaseRuleMatchesInOrderOracle(t *testing.T) {
	const end = units.Time(60 * units.Millisecond)
	for nv := 2; nv <= 4; nv++ {
		for seed := int64(1); seed <= 3; seed++ {
			for _, tick := range []units.Duration{0, relTick} {
				relOracle(t, nv, seed, end, tick)
			}
		}
	}
}

func relOracle(t *testing.T, nv int, seed int64, end units.Time, tick units.Duration) {
	t.Helper()
	name := fmt.Sprintf("nv=%d seed=%d tick=%v", nv, seed, tick)
	rng := rand.New(rand.NewSource(seed*100 + int64(nv)))
	streams := relStreams(rng, nv, end)
	frames := make([][]relFrame, nv)
	var stamped []relItem
	ticks, beats := 0, 0
	for v := range streams {
		var b int
		frames[v], b = relEncode(t, rng, uint16(v+1), streams[v], tick)
		beats += b
		stamped = append(stamped, relStamped(t, v, frames[v])...)
		for _, it := range streams[v] {
			if it.heartbeat {
				ticks++
			}
		}
	}
	if ticks == 0 || beats != ticks {
		t.Fatalf("%s: %d heartbeats from %d idle ticks; every tick must send one", name, beats, ticks)
	}

	var want []string
	oracle, joinOracle := relPlane(&want)
	ov := make([]*agg.Vantage, nv)
	for v := range ov {
		ov[v] = joinOracle(v)
	}
	sort.SliceStable(stamped, func(i, j int) bool { return stamped[i].at < stamped[j].at })
	ties := 0
	for i := 1; i < len(stamped); i++ {
		if stamped[i].at == stamped[i-1].at {
			ties++
		}
	}
	if tick > 0 && ties == 0 {
		t.Fatalf("%s: no two records share a stamp on %v clocks; the tie-break goes untested", name, tick)
	}
	t.Logf("%s: %d heartbeats, %d stamps equal to their predecessor", name, beats, ties)
	for i := range stamped {
		if it := &stamped[i]; it.rejoin {
			ov[it.vantage].Rejoin()
		} else {
			ov[it.vantage].Report(&it.rep)
		}
	}
	if len(want) < 50 {
		t.Fatalf("%s: oracle emitted only %d events; the comparison would be vacuous", name, len(want))
	}
	if oracle.LateReports() != 0 {
		t.Fatalf("%s: the in-order oracle dropped %d candidates late", name, oracle.LateReports())
	}

	var got []string
	plane, join := relPlane(&got)
	recv := vantagelink.NewReceiver(vantagelink.ReceiverConfig{})
	recv.OnAdvance = plane.AdvanceMerge
	blackHole := vantagelink.ChannelFunc(func(units.Time, []byte) error { return nil })
	for v := 0; v < nv; v++ {
		recv.Join(uint16(v+1), planeSink{v: join(v)}, blackHole)
	}
	next := make([]int, nv)
	total := 0
	for v := range frames {
		total += len(frames[v])
	}
	for left := total; left > 0; left-- {
		// Half the time the globally oldest frame, else any
		// vantage's next: streams run ahead of and behind one
		// another without bound.
		pick := -1
		for v := range frames {
			if next[v] < len(frames[v]) && (pick < 0 || frames[v][next[v]].at < frames[pick][next[pick]].at) {
				pick = v
			}
		}
		if rng.Intn(2) == 0 {
			for v := rng.Intn(nv); ; v = (v + 1) % nv {
				if next[v] < len(frames[v]) {
					pick = v
					break
				}
			}
		}
		f := frames[pick][next[pick]]
		next[pick]++
		recv.HandleDatagram(f.at, f.dgram)
	}
	released := len(got)
	recv.Drain()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: %d events, oracle %d; first difference at %d", name, len(got), len(want), firstDiff(got, want))
	}
	if late := plane.LateReports(); late != 0 {
		t.Errorf("%s: %d candidates dropped late", name, late)
	}
	if late := recv.LateRecords(); late != 0 {
		t.Errorf("%s: %d records arrived behind the receiver's watermark", name, late)
	}
	if released < len(want)*3/4 {
		t.Errorf("%s: only %d of %d events out before the final drain; the receiver released almost nothing", name, released, len(want))
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// relLink wires nv vantages to a plane through a receiver, each with a
// sender whose frames reach the receiver at once and which is synced at
// time 0 through the receiver's answer. send reports one single-record
// frame; beat sends a synced heartbeat.
type relLink struct {
	plane  *agg.Plane
	recv   *vantagelink.Receiver
	snd    []*vantagelink.Sender
	events []string
}

func newRelLink(nv int, rcfg vantagelink.ReceiverConfig) *relLink {
	l := &relLink{recv: vantagelink.NewReceiver(rcfg)}
	plane, join := relPlane(&l.events)
	l.plane = plane
	l.recv.OnAdvance = plane.AdvanceMerge
	toRecv := vantagelink.ChannelFunc(func(now units.Time, d []byte) error {
		l.recv.HandleDatagram(now, d)
		return nil
	})
	for i := 0; i < nv; i++ {
		snd := vantagelink.NewSender(toRecv, vantagelink.SenderConfig{Vantage: uint16(i + 1)})
		l.recv.Join(uint16(i+1), planeSink{v: join(i)}, vantagelink.ChannelFunc(func(now units.Time, d []byte) error {
			snd.HandleControl(now, d)
			return nil
		}))
		snd.Tick(0)
		l.snd = append(l.snd, snd)
	}
	return l
}

func (l *relLink) send(v, port, flow int, at units.Time, rate units.Rate) {
	rep := relReport(v, port, flow, at, rate)
	l.snd[v].Report(&rep)
	l.snd[v].BatchEnd(at)
}

func (l *relLink) beat(v int, at units.Time) { l.snd[v].Tick(at) }

// TestReleaseHold counts, in virtual time, what a candidate waits for
// between the receiver — the fleet's one reorder buffer — and the
// plane's subscriber.
func TestReleaseHold(t *testing.T) {
	const (
		cadence = 200 * units.Microsecond
		hot     = units.Rate(9_500_000_000)
		t0      = units.Time(10 * units.Millisecond)
	)

	t.Run("one vantage: the last record leaves with its frame", func(t *testing.T) {
		l := newRelLink(1, vantagelink.ReceiverConfig{})
		cool := relReport(0, 2, 0, t0, 1000)
		trigger := relReport(0, 1, 0, t0, hot)
		l.snd[0].Report(&cool)
		l.snd[0].Report(&trigger)
		l.snd[0].BatchEnd(t0)
		if len(l.events) != 1 {
			t.Fatalf("%d events once the trigger's frame arrived, want 1: it must not wait for the next report", len(l.events))
		}
	})

	t.Run("two vantages at 200us: within one cadence", func(t *testing.T) {
		l := newRelLink(2, vantagelink.ReceiverConfig{})
		// Vantage 1 reports half a cadence out of phase with vantage 0.
		l.send(1, 0, 0, t0.Add(-cadence/2), 1000)
		l.send(0, 1, 0, t0, hot)
		if len(l.events) != 0 {
			t.Fatalf("emitted before the other vantage had reached the trigger's time")
		}
		l.send(1, 0, 0, t0.Add(cadence/2), 1000)
		if len(l.events) != 1 {
			t.Fatalf("%d events once the other vantage reported past the trigger (%v after it), want 1", len(l.events), cadence/2)
		}
	})

	t.Run("idle vantage behind synced heartbeats: no window", func(t *testing.T) {
		l := newRelLink(2, vantagelink.ReceiverConfig{})
		l.send(1, 0, 0, t0.Add(-5*units.Millisecond), 1000)
		l.send(0, 1, 0, t0, hot)
		for i := 1; i <= 4; i++ {
			l.send(0, 2, 0, t0.Add(units.Duration(i)*cadence), 1000)
		}
		if len(l.events) != 0 {
			t.Fatalf("emitted while the idle vantage's clock still stood before the trigger")
		}
		l.beat(1, t0.Add(cadence))
		if len(l.events) != 1 {
			t.Fatalf("%d events after a synced heartbeat stamped past the trigger, want 1: an idle vantage must not need a window", len(l.events))
		}
	})

	t.Run("stale vantage holds nothing", func(t *testing.T) {
		l := newRelLink(2, vantagelink.ReceiverConfig{HoldTimeout: units.Millisecond})
		l.send(1, 0, 0, t0.Add(-5*units.Millisecond), 1000)
		l.send(0, 1, 0, t0, hot)
		l.send(0, 2, 0, t0+1, 1000)
		if len(l.events) != 0 {
			t.Fatalf("emitted while the silent vantage was still counted")
		}
		l.recv.Tick(t0 + 2) // 5 ms of silence > HoldTimeout
		if !l.recv.Excluded(2) {
			t.Fatalf("silent vantage not excluded")
		}
		if len(l.events) != 1 {
			t.Fatalf("%d events after the silent vantage was excluded, want 1", len(l.events))
		}
	})
}

// TestLateCandidateDropped is the one way a candidate can still reach
// the plane behind the merge watermark: a vantage excluded for silence
// comes back with a record stamped behind the watermark the rest of
// the fleet has moved on. The receiver counts the record late and
// still delivers it; the plane must drop its candidate, counted, not
// emit it out of order. The vantage's next record behind no watermark
// is an event as usual.
func TestLateCandidateDropped(t *testing.T) {
	const (
		step = 200 * units.Microsecond
		hot  = units.Rate(9_500_000_000)
	)
	l := newRelLink(2, vantagelink.ReceiverConfig{HoldTimeout: units.Millisecond})
	l.send(0, 1, 0, units.Time(step), 1000)
	l.send(1, 1, 0, units.Time(step), 1000)
	// Vantage 1 falls silent; vantage 0 carries the watermark on alone
	// once the receiver excludes the silent one.
	now := units.Time(step)
	for now < units.Time(5*units.Millisecond) {
		now = now.Add(step)
		l.send(0, 1, 0, now, 1000)
		l.recv.Tick(now)
	}
	if !l.recv.Excluded(2) {
		t.Fatal("silent vantage not excluded")
	}
	wm := l.recv.Watermark()
	behind := units.Time(2 * units.Millisecond)
	l.send(1, 1, 0, behind, hot)
	// Vantage 1 reports past the watermark, so the late record leaves
	// the receiver; then vantage 0 catches up to release the new one.
	ahead := now.Add(step)
	l.send(1, 1, 0, ahead, hot)
	l.send(0, 1, 0, ahead.Add(step), 1000)

	if n := l.recv.LateRecords(); n != 1 {
		t.Fatalf("%d late records at the receiver, want 1 (stamped %v behind watermark %v)", n, behind, wm)
	}
	if late := l.plane.LateReports(); late != 1 {
		t.Errorf("plane dropped %d candidates late, want 1", late)
	}
	if len(l.events) != 1 {
		t.Fatalf("%d events %v, want only the one at %v", len(l.events), l.events, ahead)
	}
	if want := fmt.Sprintf("t=%d ", ahead); !strings.HasPrefix(l.events[0], want) {
		t.Errorf("event %q, want the candidate at %v", l.events[0], ahead)
	}
}
