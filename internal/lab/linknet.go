package lab

import (
	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/sim"
	"planck/internal/units"
	"planck/internal/vantagelink"
)

// vantagePlaneSink adapts one plane vantage to the transport
// receiver's delivery interface: resequenced records merge into the
// plane, frame arrivals refresh liveness on the plane's receive
// clock, and in-stream Rejoin announcements replay the supervised
// restart protocol.
type vantagePlaneSink struct {
	v *agg.Vantage
}

func (a vantagePlaneSink) Report(rep *core.FlowReport) { a.v.Report(rep) }
func (a vantagePlaneSink) Live(now units.Time)         { a.v.NoteLive(now) }
func (a vantagePlaneSink) Rejoin(uint32)               { a.v.Rejoin() }

// buildLinkReceiver assembles the plane-side transport endpoint: one
// shared receiver whose watermark advances drive the plane's merge
// clock, ticked on the link cadence for NACKs and silence exclusion.
func (l *Lab) buildLinkReceiver() {
	l.linkRecv = vantagelink.NewReceiver(vantagelink.ReceiverConfig{
		Metrics: l.Metrics,
	})
	l.linkRecv.OnAdvance = l.Agg.AdvanceMerge
	sim.NewTicker(l.Eng, linkTick, l.linkRecv.Tick)
}

// buildLink wires switch s's collector to the plane over the wire
// transport: a per-vantage sender (the collector's sink) feeding a
// fault gate on the report path, engine-scheduled channel latency both
// ways, and a receiver-side join binding the vantage's liveness to
// frame arrivals. Returns the sender to install as the collector sink.
func (l *Lab) buildLink(s int, v *agg.Vantage, switchName string) *vantagelink.Sender {
	fwd := vantagelink.ChannelFunc(func(_ units.Time, dgram []byte) error {
		cp := append([]byte(nil), dgram...)
		l.Eng.After(reportDelay, sim.Callback(func(at units.Time) {
			l.linkRecv.HandleDatagram(at, cp)
		}), nil)
		return nil
	})
	seed := l.opts.Fleet.Link.FaultSeed
	if seed == 0 {
		seed = l.opts.Seed
	}
	gate := vantagelink.NewFaultGate(fwd, l.linkSched, seed+int64(s)*6151)
	gate.Defer = func(d units.Duration, deliver func()) {
		l.Eng.After(d, sim.Callback(func(units.Time) { deliver() }), nil)
	}

	snd := vantagelink.NewSender(gate, vantagelink.SenderConfig{
		Vantage:    uint16(v.ID()),
		SwitchName: switchName,
		Metrics:    l.Metrics,
	})

	rev := vantagelink.ChannelFunc(func(_ units.Time, dgram []byte) error {
		cp := append([]byte(nil), dgram...)
		l.Eng.After(reportDelay, sim.Callback(func(at units.Time) {
			snd.HandleControl(at, cp)
		}), nil)
		return nil
	})
	l.linkRecv.Join(uint16(v.ID()), vantagePlaneSink{v: v}, rev)
	// Liveness now rides the transport: the plane judges this vantage
	// by heartbeat/report arrivals, not by sink calls.
	v.BindTransport()

	// The sender's clock lives in the collector process: when that
	// process is crashed, heartbeats and retransmits stop with it, so
	// the receiver sees real silence until the supervisor restarts it.
	sim.NewTicker(l.Eng, linkTick, func(now units.Time) {
		if node := l.Collectors[s]; node != nil && node.Crashed() {
			return
		}
		snd.Tick(now)
	})
	l.linkSenders[s] = snd
	l.linkGates[s] = gate
	return snd
}

// LinkSender returns switch s's transport sender, or nil when the lab
// has no Fleet Link (or for unmonitored switches).
func (l *Lab) LinkSender(s int) *vantagelink.Sender {
	if l.linkSenders == nil {
		return nil
	}
	return l.linkSenders[s]
}

// LinkGate returns the fault gate on switch s's report channel, or
// nil when the lab has no Fleet Link. Tests flip schedules on it mid-run
// (vantagelink.FaultGate.SetSchedule) to partition a single vantage's
// report path while its collector stays alive.
func (l *Lab) LinkGate(s int) *vantagelink.FaultGate {
	if l.linkGates == nil {
		return nil
	}
	return l.linkGates[s]
}

// LinkReceiver returns the plane-side transport receiver, or nil when
// the lab has no Fleet Link.
func (l *Lab) LinkReceiver() *vantagelink.Receiver { return l.linkRecv }
