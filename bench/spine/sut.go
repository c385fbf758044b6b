package main

// sut.go is the only file of the harness that touches the product.
// Everything the benchmark pins — constructors, methods, counters — is
// named here once; bench/README.md lists the same surface. Later PRs
// may not edit bench/, so they keep these names (as wrappers if need
// be).

import (
	"errors"
	"math/rand"
	"net"

	"planck"
	"planck/internal/agg"
	"planck/internal/controller"
	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/sim"
	"planck/internal/te"
	"planck/internal/topo"
	"planck/internal/units"
	"planck/internal/vantagelink"
)

type (
	Time          = units.Time
	Duration      = units.Duration
	Rate          = units.Rate
	FlowKey       = packet.FlowKey
	MAC           = packet.MAC
	IPv4          = packet.IPv4
	Decoded       = packet.Decoded
	Collector     = core.Collector
	Event         = core.CongestionEvent
	FlowReport    = core.FlowReport
	FlowTable     = core.FlowTable
	RateEstimator = core.RateEstimator
	Ingester      = core.Ingester
	ReportSink    = vantagelink.ReportSink
	UDPServeStats = planck.UDPServeStats
	View          = routing.View
)

// Sink is the seam between a vantage collector and its report sender.
type Sink interface {
	core.AggregationSink
	core.BatchEndSink
}

const (
	lineRate = units.Rate10G
	protoTCP = packet.IPProtocolTCP
	flagSYN  = packet.TCPSyn
	flagACK  = packet.TCPAck
	// monitoredSwitch is the edge switch every workload observes: hosts
	// 0 and 1 on ports 0 and 1, aggregation uplinks on ports 2 and 3.
	monitoredSwitch = 0
)

// fabric is the paper's 16-host fat-tree with its controller, PlanckTE
// and the routing store they commit to. Actuation is a no-op: the
// benchmark's generator plays the hosts.
type fabric struct {
	net  *topo.Network
	ctrl *controller.Controller
}

type noopActuator struct{}

func (noopActuator) InstallSnapshot(*routing.Snapshot) {}
func (noopActuator) Apply(units.Time, routing.Change)  {}

func newFabric(seed int64) *fabric {
	n := topo.FatTree16(lineRate)
	c := controller.NewWithActuator(sim.New(), n, noopActuator{}, controller.DefaultConfig(), rand.New(rand.NewSource(seed)))
	c.InstallRoutes(nil, true)
	return &fabric{net: n, ctrl: c}
}

// attachTE starts PlanckTE on the fabric's controller, event-driven only.
func (f *fabric) attachTE() {
	cfg := te.DefaultPlanckTEConfig()
	cfg.ViewRefresh = 0
	te.NewPlanckTE(f.ctrl, cfg)
}

func (f *fabric) numPorts() int    { return len(f.net.Ports[monitoredSwitch]) }
func (f *fabric) numHosts() int    { return f.net.NumHosts() }
func (f *fabric) numTrees() int    { return f.net.NumTrees }
func (f *fabric) epoch() uint64    { return f.ctrl.RoutingStore().Epoch() }
func (f *fabric) deliver(ev Event) { f.ctrl.DeliverEvent(ev) }
func (f *fabric) view() *View      { return routing.NewView(f.ctrl.RoutingStore(), monitoredSwitch) }

// outPort is the monitored switch's egress port toward host dst on tree.
func (f *fabric) outPort(dst, tree int) int { return f.net.RoutePort(tree, dst, monitoredSwitch) }

// onReroute observes every reroute decision before it commits.
func (f *fabric) onReroute(fn func(src, dst, tree int)) {
	f.ctrl.OnReroute = func(_ units.Time, _ packet.FlowKey, src, dst, tree int, _ bool) { fn(src, dst, tree) }
}

// newCollector builds the monitored switch's collector over the
// fabric's routing view; sink may be nil.
func (f *fabric) newCollector(sink Sink) *Collector {
	cfg := core.Config{
		SwitchName: f.net.SwitchNames[monitoredSwitch],
		NumPorts:   f.numPorts(),
		LinkRate:   lineRate,
	}
	if sink != nil {
		cfg.Sink = sink // a nil Sink must stay a nil interface in Config
	}
	c := core.New(cfg)
	c.SetPortMapper(f.view())
	return c
}

// batchFailures is how many frames of an IngestBatch call the collector
// rejected; n is the batch length, charged whole for an untyped error.
func batchFailures(err error, n int) int {
	var be *core.BatchError
	if errors.As(err, &be) {
		return be.Failed
	}
	return n
}

// eventCooldown is the per-link spacing the collector and the plane
// promise between congestion events.
func eventCooldown() Duration { return core.Config{}.WithDefaults().EventCooldown }

func hostIP(h int) IPv4            { return topo.HostIP(h) }
func shadowMAC(h, tree int) MAC    { return topo.ShadowMAC(h, tree) }
func hashKey(k FlowKey) uint64     { return core.HashFlowKey(k) }
func newEstimator() *RateEstimator { return core.NewRateEstimator() }

// headerFrame builds a 54-byte header-only TCP frame whose IP total
// length claims a 1460-byte payload, as a truncating mirror would.
func headerFrame(k FlowKey, srcMAC, dstMAC MAC, flags uint8) []byte {
	f := packet.BuildTCP(nil, packet.TCPSpec{
		SrcMAC: srcMAC, DstMAC: dstMAC,
		SrcIP: k.SrcIP, DstIP: k.DstIP,
		SrcPort: k.SrcPort, DstPort: k.DstPort,
		Flags: flags,
	})
	total := packet.IPv4MinHeaderLen + packet.TCPMinHeaderLen + 1460
	f[16], f[17] = byte(total>>8), byte(total)
	return f
}

func encodeSample(buf []byte, t Time, frame []byte) []byte { return planck.EncodeSample(buf, t, frame) }

// serveUDP runs the product's batched drain loop until conn closes.
func serveUDP(conn net.PacketConn, ing Ingester, st *UDPServeStats) error {
	_, err := planck.ServeUDPBatched(conn, ing, 0, 32, st)
	return err
}

// reportLink is the loop workload's report path: the collector's sink
// is a UDP sender dialled to a UDP receiver that delivers into one
// transport-bound plane vantage; the plane emits merged events.
type reportLink struct {
	plane *agg.Plane
	rx    *vantagelink.UDPReceiver
	tx    *vantagelink.UDPSender
}

// vantageSink adapts a plane vantage to the receiver's delivery seam.
type vantageSink struct{ v *agg.Vantage }

func (s vantageSink) Report(rep *FlowReport) { s.v.Report(rep) }
func (s vantageSink) Live(now Time)          { s.v.NoteLive(now) }
func (s vantageSink) Rejoin(uint32)          { s.v.Rejoin() }

// newReportLink wires plane, receiver and sender over loopback. wrap
// interposes on the delivery seam in front of the vantage; onEvent is
// the plane's only subscriber.
func (f *fabric) newReportLink(wrap func(ReportSink) ReportSink, onEvent func(Event)) (*reportLink, error) {
	plane := agg.New(agg.Config{ReorderWindow: units.Millisecond, ExternalMergeAdvance: true})
	plane.Subscribe(onEvent)
	pv := plane.Join(monitoredSwitch, f.net.SwitchNames[monitoredSwitch], f.numPorts(), lineRate)
	pv.BindTransport()

	rx, err := vantagelink.ListenUDPReceiver("127.0.0.1:0",
		vantagelink.ReceiverConfig{HoldTimeout: 500 * units.Millisecond},
		vantagelink.NewEpochWallClock(), 0)
	if err != nil {
		return nil, err
	}
	rx.Join(uint16(pv.ID()), wrap(vantageSink{pv}))
	rx.Locked(func() { rx.Receiver().OnAdvance = plane.AdvanceMerge })

	tx, err := vantagelink.DialUDPSender(rx.Addr(),
		vantagelink.SenderConfig{Vantage: uint16(pv.ID()), SwitchName: f.net.SwitchNames[monitoredSwitch]},
		vantagelink.NewEpochWallClock(), 0, nil)
	if err != nil {
		rx.Close()
		return nil, err
	}
	return &reportLink{plane: plane, rx: rx, tx: tx}, nil
}

// locked runs fn under the receiver's lock, which every delivery and
// event callback holds.
func (l *reportLink) locked(fn func()) { l.rx.Locked(fn) }

func (l *reportLink) sink() Sink   { return l.tx }
func (l *reportLink) synced() bool { return l.tx.Synced() }

// released reads the receiver's release counter while it runs.
func (l *reportLink) released() (n int64, complete bool) {
	l.rx.Locked(func() {
		n = l.rx.Receiver().RecordsReleased()
		complete = l.rx.Receiver().Complete()
	})
	return n, complete
}

// linkCounters are the link's totals, read after close.
type linkCounters struct {
	framesSent, recordsSent, resends, sheds int64
	framesRecv, released, gaps, abandoned   int64
	late                                    int64 // records that arrived behind the release watermark
	offset                                  Duration
}

// close stops both halves, drains the plane, and returns the totals.
func (l *reportLink) close() linkCounters {
	l.tx.Close()
	l.rx.Close()
	l.plane.Flush()
	s, r := l.tx.Sender(), l.rx.Receiver()
	off, _ := s.Offset()
	return linkCounters{
		framesSent: s.FramesSent(), recordsSent: s.RecordsSent(), resends: s.Resends(), sheds: s.Sheds(),
		framesRecv: r.FramesReceived(), released: r.RecordsReleased(), gaps: r.GapsDetected(), abandoned: r.Abandoned(),
		late:   r.LateRecords(),
		offset: off,
	}
}
