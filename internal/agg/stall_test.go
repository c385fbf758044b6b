package agg_test

import (
	"fmt"
	"slices"
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/units"
	"planck/internal/vantagelink"
)

// TestLinkSurvivesReceiverStalls is the host-stall scenario in virtual
// time: two vantage senders report over the link pump to one receiver
// that stops for 100 ms in every second — no datagram handled, no tick
// run, everything queued until it wakes, as a descheduled process finds
// its socket. Each vantage's port goes over threshold for 400 µs every
// 20 ms. Every such burst must come out as exactly one merged event,
// stalled or not; the clock exchange that straddles a stall (a
// round trip of up to a heartbeat period where 40 µs is normal) must not
// move a sender's offset; nothing may be dropped late or abandoned.
func TestLinkSurvivesReceiverStalls(t *testing.T) {
	const (
		nv          = 2
		end         = units.Time(3 * units.Second)
		reportEvery = 200 * units.Microsecond
		burstEvery  = 20 * units.Millisecond
		stallEvery  = units.Second
		stallFor    = 100 * units.Millisecond
		hot         = units.Rate(9_500_000_000)
		// One step of the sender's clock filter; a stall is 2,000 of them.
		offsetBound = 50 * units.Microsecond
	)
	skews := [nv]units.Duration{700 * units.Microsecond, -400 * units.Microsecond}

	pump := &linkPump{}
	var events []core.CongestionEvent
	plane := agg.New(agg.Config{ReorderWindow: units.Millisecond, ExternalMergeAdvance: true})
	plane.Subscribe(func(ev core.CongestionEvent) {
		ev.Flows = slices.Clone(ev.Flows)
		events = append(events, ev)
	})
	recv := vantagelink.NewReceiver(vantagelink.ReceiverConfig{HoldTimeout: 500 * units.Millisecond})
	recv.OnAdvance = plane.AdvanceMerge

	// stalledUntil > pump.now while the receiver is stopped; what arrives
	// meanwhile waits in backlog, in arrival order.
	var stalledUntil units.Time
	var backlog [][]byte
	toReceiver := func(at units.Time, dgram []byte) {
		if at < stalledUntil {
			backlog = append(backlog, dgram)
			return
		}
		recv.HandleDatagram(at, dgram)
	}

	senders := make([]skewedSender, nv)
	for i := range senders {
		v := plane.Join(i, fmt.Sprintf("sw%d", i), relPorts, units.Rate10G)
		v.BindTransport()
		fwd := vantagelink.ChannelFunc(func(_ units.Time, dgram []byte) error {
			cp := append([]byte(nil), dgram...)
			pump.after(pumpDelay, func(at units.Time) { toReceiver(at, cp) })
			return nil
		})
		snd := skewedSender{vantagelink.NewSender(fwd, vantagelink.SenderConfig{Vantage: uint16(v.ID())}), skews[i]}
		rev := vantagelink.ChannelFunc(func(_ units.Time, dgram []byte) error {
			cp := append([]byte(nil), dgram...)
			pump.after(pumpDelay, func(at units.Time) { snd.HandleControl(at, cp) })
			return nil
		})
		recv.Join(uint16(v.ID()), planeSink{v: v}, rev)
		senders[i] = snd
	}

	var worstOffset [nv]units.Duration
	tick := func(now units.Time) {
		for i, s := range senders {
			s.Tick(now)
			if off, ok := s.Offset(); ok {
				worstOffset[i] = max(worstOffset[i], off+skews[i], -(off + skews[i]))
			}
		}
		if now >= stalledUntil {
			for _, dgram := range backlog {
				recv.HandleDatagram(now, dgram)
			}
			backlog = backlog[:0]
			recv.Tick(now)
		}
	}

	// Stall n starts 300 ms into second n, 137 µs later each time so that
	// its end drifts against the heartbeat phase; 5 of every 50 bursts
	// fall inside one.
	stallAt := func(n int) units.Time {
		return units.Time(n)*units.Time(stallEvery) + units.Time(300*units.Millisecond+units.Duration(n)*137*units.Microsecond)
	}
	bursts, stalls := 0, 0
	for now, k := units.Time(0), 0; now < end; now, k = now.Add(reportEvery), k+1 {
		pump.run(now, tick)
		if now >= stallAt(stalls) {
			stalledUntil = stallAt(stalls).Add(stallFor)
			stalls++
		}
		// Every vantage reports a mouse on port 0 each period. Its
		// elephant on port 1 is hot for two reports 200 µs apart — the
		// second inside the first's 250 µs cooldown — and reported cold
		// with the third, so a burst is one event and the port is quiet
		// until the next.
		phase := now % units.Time(burstEvery) / units.Time(reportEvery)
		if phase == 0 {
			bursts++
		}
		for i, s := range senders {
			mouse := relReport(i, 0, k%2, now, 1_000_000)
			s.Report(&mouse)
			if phase <= 2 {
				rate := hot
				if phase == 2 {
					rate = 1_000_000
				}
				el := relReport(i, 1, 0, now+1, rate)
				s.Report(&el)
			}
			s.BatchEnd(now)
		}
	}
	// Let the last stall end and the link drain on its own clocks.
	pump.run(end.Add(stallFor+10*units.Millisecond), tick)
	if !recv.Complete() {
		t.Fatalf("link did not drain: %d gaps outstanding, %d records pending", recv.OutstandingGaps(), recv.PendingRecords())
	}
	plane.Flush()

	type burstOf struct {
		sw     string
		number int64
	}
	perBurst := map[burstOf]int{}
	for _, ev := range events {
		perBurst[burstOf{ev.SwitchName, int64(ev.Time) / int64(burstEvery)}]++
	}
	t.Logf("%d bursts x %d vantages: %d events over %d (switch, burst) pairs; plane late %d, receiver late records %d, abandoned %d; worst offset error %v",
		bursts, nv, len(events), len(perBurst), plane.LateReports(), recv.LateRecords(), recv.Abandoned(), worstOffset)
	if len(perBurst) != bursts*nv {
		t.Errorf("%d (switch, burst) pairs produced events, want every one of %d", len(perBurst), bursts*nv)
	}
	for key, n := range perBurst {
		if n != 1 {
			t.Errorf("%s burst %d: %d events, want 1", key.sw, key.number, n)
		}
	}
	if late := plane.LateReports(); late != 0 {
		t.Errorf("plane dropped %d candidates late", late)
	}
	if late := recv.LateRecords(); late != 0 {
		t.Errorf("%d records arrived behind the delivery watermark", late)
	}
	if a := recv.Abandoned(); a != 0 {
		t.Errorf("%d gaps abandoned", a)
	}
	for i, s := range senders {
		if s.Sheds() != 0 {
			t.Errorf("sender %d shed %d frames", i, s.Sheds())
		}
		if worstOffset[i] > offsetBound {
			t.Errorf("sender %d: clock offset strayed %v from the true skew; the filter bounds one exchange to %v", i, worstOffset[i], offsetBound)
		}
	}
}
