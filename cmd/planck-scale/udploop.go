package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/packet"
	"planck/internal/stats"
	"planck/internal/units"
	"planck/internal/vantagelink"
)

// udpRun exercises the vantage report transport over real sockets: n
// sender goroutines, each with its own skewed wall clock and a lossy
// fault gate in front of a connected UDP socket, stream over-threshold
// flow reports to one loopback receiver feeding an aggregation plane.
// It gates on the transport's end-to-end promises — every record
// delivered exactly once, every sender clock-synced, zero congestion
// events violating the per-link cooldown, and events leaving the plane
// as soon as the receiver releases their trigger (median merge hold
// under maxHold) — and exits 1 if any of them breaks. Cancelling ctx
// stops the senders and the wait for the receiver to drain, and the
// gates judge what arrived.
func udpRun(ctx context.Context, stdout, stderr io.Writer, n int, loss float64, seed int64) int {
	const (
		numPorts   = 4
		reports    = 400 // per vantage
		reportGap  = 50 * time.Microsecond
		settleWait = 10 * time.Second
		maxHold    = 500 * time.Microsecond
	)

	plane := agg.New(agg.Config{})
	spacing := newEventSpacing(core.Config{}.WithDefaults().EventCooldown)
	perSwitch := make(map[string]int)
	// Merge hold: from the trigger report's delivery to the plane until
	// its event reaches the subscriber. Both ends run under the
	// receiver's lock.
	type trigger struct {
		vantage int
		time    units.Time
	}
	deliveredAt := make(map[trigger]time.Time)
	holds := stats.NewSample(n * reports) // ns
	plane.Subscribe(func(ev core.CongestionEvent) {
		spacing.observe(ev)
		perSwitch[ev.SwitchName]++
		if at, ok := deliveredAt[trigger{ev.Vantage, ev.Time}]; ok {
			holds.Add(float64(time.Since(at)))
		}
	})

	// A generous hold timeout: real-goroutine senders pause on
	// scheduler whims, and a silence exclusion here would let the
	// watermark run past records still queued in a sender.
	rx, err := vantagelink.ListenUDPReceiver("127.0.0.1:0", vantagelink.ReceiverConfig{
		HoldTimeout: 500 * units.Millisecond,
	}, nil, units.Millisecond)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Exactly-once ledger, written by the receiver goroutine under its
	// lock (delivery sinks run inside HandleDatagram) and read only
	// after the receiver is closed.
	delivered := make([]int, n)
	seen := make(map[packet.FlowKey]int)
	dups := 0

	ids := make([]uint16, n)
	for v := 0; v < n; v++ {
		pv := plane.Join(v, fmt.Sprintf("sw%d", v), numPorts, units.Rate10G)
		pv.BindTransport()
		ids[v] = uint16(pv.ID())
		id := v
		rx.Join(ids[v], countingSink{v: pv, n: func(rep *core.FlowReport) {
			deliveredAt[trigger{int(pv.ID()), rep.Time}] = time.Now()
			delivered[id]++
			seen[rep.Key]++
			if seen[rep.Key] > 1 {
				dups++
			}
		}})
	}
	rx.Locked(func() {
		rx.Receiver().OnAdvance = plane.AdvanceMerge
	})

	var sched *faults.Schedule
	if loss > 0 {
		sched = faults.NewSchedule(faults.Rule{Kind: faults.KindLoss, From: 0, To: faults.Forever, Prob: loss})
	}

	senders := make([]*vantagelink.UDPSender, n)
	gates := make([]*vantagelink.FaultGate, n)
	clocks := make([]*vantagelink.WallClock, n)
	for v := 0; v < n; v++ {
		// Deterministic per-vantage skew, spread a few hundred µs
		// either side of the receiver's clock so the sync exchange has
		// real offsets to cancel.
		skew := units.Duration(v-n/2) * 237 * units.Microsecond
		clocks[v] = vantagelink.NewSkewedWallClock(skew)
		var gate *vantagelink.FaultGate
		wrap := func(ch vantagelink.Channel) vantagelink.Channel {
			gate = vantagelink.NewFaultGate(ch, sched, seed+int64(v)*6151)
			return gate
		}
		tx, err := vantagelink.DialUDPSender(rx.Addr(), vantagelink.SenderConfig{
			Vantage:    ids[v],
			SwitchName: fmt.Sprintf("sw%d", v),
		}, clocks[v], units.Millisecond, wrap)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		senders[v] = tx
		gates[v] = gate
	}

	var wg sync.WaitGroup
	for v := 0; v < n; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(v)))
			tx := senders[v]
			for i := 0; i < reports && ctx.Err() == nil; i++ {
				now := clocks[v].Now()
				rep := core.FlowReport{
					Time: now,
					Key: packet.FlowKey{
						SrcIP:   packet.IPv4{10, 0, byte(v), 1},
						DstIP:   packet.IPv4{10, 8, byte(i >> 8), byte(i)},
						SrcPort: uint16(i),
						DstPort: 5001,
						Proto:   packet.IPProtocolTCP,
					},
					DstMAC:      packet.MAC{2, 0, 0, 0, byte(v), byte(i)},
					OutPort:     i % numPorts,
					Epoch:       1,
					Rate:        units.Rate(9_500_000_000 + rng.Int63n(1_000_000)),
					RateOK:      true,
					RateUpdated: true,
				}
				tx.Report(&rep)
				tx.BatchEnd(now)
				time.Sleep(reportGap)
			}
		}(v)
	}
	wg.Wait()

	// Senders keep heartbeating (NACK recovery and watermark advance
	// need them alive); wait for the receiver to finish resequencing.
	complete := false
	deadline := time.Now().Add(settleWait)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var total int64
		rx.Locked(func() {
			total = rx.Receiver().RecordsReceived()
			complete = rx.Receiver().Complete()
		})
		if complete && total >= int64(n*reports) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	syncedAll := true
	var frames, records, resends, sheds, lost int64
	for v, tx := range senders {
		if !tx.Synced() {
			fmt.Fprintf(stderr, "udp fleet: sender %d never completed clock sync\n", v)
			syncedAll = false
		}
		frames += tx.Sender().FramesSent()
		records += tx.Sender().RecordsSent()
		resends += tx.Sender().Resends()
		sheds += tx.Sender().Sheds()
		tx.Close()
	}
	for _, g := range gates {
		if g != nil {
			lost += g.Met.Lost.Value()
		}
	}
	rx.Close()

	fmt.Fprintf(stdout, "udp fleet: %d vantages over %s, loss %.0f%%: %d frames / %d records sent, %d lost on the wire, %d resent, %d shed\n",
		n, rx.Addr(), loss*100, frames, records, lost, resends, sheds)
	fmt.Fprintf(stdout, "udp fleet rx: %d records released, %d gaps, %d abandoned, %d dup frames, %d excluded\n",
		rx.Receiver().RecordsReleased(), rx.Receiver().GapsDetected(),
		rx.Receiver().Abandoned(), rx.Receiver().DupFrames(), rx.Receiver().Exclusions())
	fmt.Fprintf(stdout, "udp fleet plane: %d events emitted (%d switches), %d deduped, %d late\n",
		spacing.events, len(perSwitch), plane.SuppressedCandidates(), plane.LateReports())
	holdP50, holdP90 := time.Duration(holds.Median()), time.Duration(holds.Quantile(0.9))
	fmt.Fprintf(stdout, "udp fleet merge hold (report delivered to event emitted): p50 %v, p90 %v over %d events\n",
		holdP50, holdP90, holds.N())

	code := 0
	if holds.N() == 0 || holdP50 >= maxHold {
		fmt.Fprintf(stderr, "udp fleet: median merge hold %v over %d events is not under %v: events wait in the plane after the receiver released them\n",
			holdP50, holds.N(), maxHold)
		code = 1
	}
	if !complete {
		fmt.Fprintln(stderr, "udp fleet: receiver never drained (outstanding gaps or buffered frames)")
		code = 1
	}
	for v := 0; v < n; v++ {
		if delivered[v] != reports {
			fmt.Fprintf(stderr, "udp fleet: vantage %d delivered %d/%d records\n", v, delivered[v], reports)
			code = 1
		}
	}
	if dups > 0 {
		fmt.Fprintf(stderr, "udp fleet: %d records delivered more than once\n", dups)
		code = 1
	}
	if !syncedAll {
		code = 1
	}
	if spacing.bad > 0 {
		fmt.Fprintf(stderr, "udp fleet: %d/%d congestion events violated the per-link cooldown\n", spacing.bad, spacing.events)
		code = 1
	}
	if len(perSwitch) < n {
		fmt.Fprintf(stderr, "udp fleet: events covered %d/%d switches\n", len(perSwitch), n)
		code = 1
	}
	return code
}

// countingSink forwards resequenced records into a plane vantage and
// runs the smoke's exactly-once ledger on the side.
type countingSink struct {
	v *agg.Vantage
	n func(rep *core.FlowReport)
}

func (s countingSink) Report(rep *core.FlowReport) {
	s.n(rep)
	s.v.Report(rep)
}
func (s countingSink) Live(now units.Time) { s.v.NoteLive(now) }
func (s countingSink) Rejoin(uint32)       { s.v.Rejoin() }
