package lab

import (
	"errors"

	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/obs"
	"planck/internal/obs/trace"
	"planck/internal/sim"
	"planck/internal/switchsim"
	"planck/internal/units"
)

// CollectorNode is the server process terminating one monitor link. It
// models the capture stack the paper built on netmap: frames arriving on
// the NIC are delivered to the collector in batches at each poll tick,
// and every sample's timestamp is the delivery time — which is what the
// rate estimator and all latency measurements see. The node serializes
// each simulated packet into genuine wire bytes before handing it to the
// collector, so the exact parse path a hardware deployment would run is
// exercised for every sample.
type CollectorNode struct {
	eng      *sim.Engine
	col      *core.Collector
	port     *sim.Port
	poll     units.Duration
	overhead units.Duration

	pending []*sim.Packet
	ticker  *sim.Ticker

	scratch []byte

	// Batch staging for the fault-free delivery path: wire bytes are
	// copied out of scratch into a reusable arena (WireBytes reuses
	// scratch across packets) and handed to the collector in one
	// IngestBatch call per poll tick.
	bts     []units.Time
	barena  []byte
	boffs   []int // frame i is barena[boffs[i]:boffs[i+1]]
	bframes [][]byte

	// flt, when set, runs every mirror-path frame through a fault
	// schedule (loss/corruption/duplication/reordering/skew) before the
	// collector sees it; sched additionally gates collector stalls.
	flt   *faults.Injector
	sched *faults.Schedule

	// crashed models process death: frames arriving while crashed are
	// freed unprocessed (the NIC ring has no reader), until a supervisor
	// installs a replacement collector via Restart.
	crashed bool

	// lastDelivery is the poll tick that last delivered at least one
	// post-fault frame to the collector — the heartbeat signal. It is
	// intentionally the tick's engine time, not a (possibly skewed)
	// sample timestamp. Boot counts as a delivery so a freshly built
	// testbed gets a staleness grace period before traffic starts.
	lastDelivery units.Time
	delivered    int64

	// SampleLatency records, for every delivered sample, the time from
	// the sender's stamp (tcpdump-equivalent) to collector delivery —
	// the measurement latency of §5.2/Fig. 8. Recorded in nanoseconds,
	// reported in microseconds.
	SampleLatency *obs.Histogram
	// MirrorQueueLatency records time from switch entry to collector
	// delivery (the buffering component, Fig. 12), microseconds.
	MirrorQueueLatency *obs.Histogram

	// OnSample, when set, observes each delivered sample after ingest.
	OnSample func(now units.Time, pkt *sim.Packet)

	// OnFrame, when set, observes the exact wire bytes and delivery
	// timestamp of every sample just before ingest — the hook the
	// serial-equivalence oracle uses to capture a replayable stream.
	// The buffer is reused across samples; copy to retain.
	OnFrame func(at units.Time, frame []byte)

	// OnBatchEnd, when set, fires on the engine goroutine after each
	// poll batch has been fully processed (all event callbacks
	// delivered). Supervisors drain their queued events here, so event
	// handling happens-after the batch without racing the engine.
	OnBatchEnd func(now units.Time)

	// Tracer, when set, receives the capture timestamp of each
	// delivered batch (the earliest sample's sender stamp), back-dating
	// the SampleAt of any control-loop spans the batch's ingest opened.
	Tracer *trace.Tracer

	// IngestErrors counts frames the collector rejected.
	IngestErrors int64
}

// NewCollectorNode builds a collector process with its NIC port running
// at rate (which must match the monitor port it connects to).
func NewCollectorNode(eng *sim.Engine, col *core.Collector, rate units.Rate, poll, overhead units.Duration) *CollectorNode {
	n := &CollectorNode{
		eng:      eng,
		col:      col,
		poll:     poll,
		overhead: overhead,
		scratch:  make([]byte, 2048),
		// Latencies are recorded as exact nanosecond durations and
		// reported in microseconds (scale 1e-3), preserving the units
		// the experiment harnesses and the paper's figures use.
		SampleLatency:      obs.NewScaledHistogram(1e-3),
		MirrorQueueLatency: obs.NewScaledHistogram(1e-3),
	}
	n.port = sim.NewPort(eng, n, 0, rate)
	return n
}

// RegisterMetrics exposes the node's instruments in r, labelled with
// the monitored switch's name.
func (n *CollectorNode) RegisterMetrics(r *obs.Registry, switchName string) {
	label := obs.Label("switch", switchName)
	r.MustRegister("planck_lab_sample_latency_us", n.SampleLatency, label)
	r.MustRegister("planck_lab_mirror_queue_latency_us", n.MirrorQueueLatency, label)
	r.GaugeFunc("planck_lab_ingest_errors_total", func() float64 { return float64(n.IngestErrors) }, label)
}

// Port returns the node's NIC. It must be connected to a monitor port.
func (n *CollectorNode) Port() *sim.Port { return n.port }

// SetFaultInjector interposes inj on the mirror path; its schedule
// additionally drives collector stall windows. Call before Run.
func (n *CollectorNode) SetFaultInjector(inj *faults.Injector) {
	n.flt = inj
	if inj != nil {
		n.sched = inj.Schedule()
	} else {
		n.sched = nil
	}
}

// Crash kills the collector process at now: pending frames are freed
// and all subsequent arrivals are discarded until Restart. Flow tables,
// estimators, and cooldown state die with the process — exactly what a
// supervisor must compensate for.
func (n *CollectorNode) Crash(now units.Time) {
	if n.crashed {
		return
	}
	n.crashed = true
	for _, pkt := range n.pending {
		n.eng.FreePacket(pkt)
	}
	n.pending = n.pending[:0]
}

// Crashed reports whether the node is dead and awaiting a restart.
func (n *CollectorNode) Crashed() bool { return n.crashed }

// Restart installs a replacement collector and resumes capture. The
// supervisor owns rebuilding state (controller attachment, event
// subscription, cooldown restore) before calling this.
func (n *CollectorNode) Restart(col *core.Collector) {
	n.col = col
	n.crashed = false
}

// LastDelivery returns the engine time of the last poll tick that
// delivered at least one frame to the collector (0 = not yet, counts
// from boot).
func (n *CollectorNode) LastDelivery() units.Time { return n.lastDelivery }

// ingestOne runs one delivered sample through the fault layer (if any),
// the collector, and the latency accounting shared by both capture
// paths.
func (n *CollectorNode) ingestOne(at units.Time, pkt *sim.Packet) {
	frame := pkt.WireBytes(n.scratch)
	n.scratch = frame[:cap(frame)]
	if n.flt != nil {
		n.flt.Apply(at, frame, func(t units.Time, fr []byte, current bool) {
			n.deliverOne(t, fr)
			if current {
				n.accountLatency(t, pkt)
			}
		})
		return
	}
	n.deliverOne(at, frame)
	n.accountLatency(at, pkt)
}

// deliverHeld is the fault layer's delivery of a frame it held back:
// no latency accounting, as for every replayed frame.
func (n *CollectorNode) deliverHeld(at units.Time, frame []byte, _ bool) { n.deliverOne(at, frame) }

// deliverOne hands one surviving frame to the collector.
func (n *CollectorNode) deliverOne(at units.Time, frame []byte) {
	if n.OnFrame != nil {
		n.OnFrame(at, frame)
	}
	if err := n.col.Ingest(at, frame); err != nil {
		// Includes timestamp regressions from reordered or negatively
		// skewed frames — the real collector rejects those too.
		n.IngestErrors++
	}
	n.delivered++
}

// deliverBatch hands a poll tick's surviving frames to the collector in
// one IngestBatch call — the fault-free capture path, mirroring how the
// paper's netmap stack hands the collector a frame batch per poll. All
// frames of a tick share one delivery timestamp, so the batch is
// trivially monotone and takes the collector's fast path. Packets are
// freed by the caller after this returns.
func (n *CollectorNode) deliverBatch(at units.Time, pkts []*sim.Packet) {
	n.bts = n.bts[:0]
	n.barena = n.barena[:0]
	n.boffs = append(n.boffs[:0], 0)
	for _, pkt := range pkts {
		frame := pkt.WireBytes(n.scratch)
		n.scratch = frame[:cap(frame)]
		n.barena = append(n.barena, frame...)
		n.boffs = append(n.boffs, len(n.barena))
		n.bts = append(n.bts, at)
	}
	n.bframes = n.bframes[:0]
	for i := 0; i+1 < len(n.boffs); i++ {
		n.bframes = append(n.bframes, n.barena[n.boffs[i]:n.boffs[i+1]])
	}
	if n.OnFrame != nil {
		for _, fr := range n.bframes {
			n.OnFrame(at, fr)
		}
	}
	if err := n.col.IngestBatch(n.bts, n.bframes); err != nil {
		var be *core.BatchError
		if errors.As(err, &be) {
			n.IngestErrors += int64(be.Failed)
		} else {
			n.IngestErrors += int64(len(n.bframes))
		}
	}
	n.delivered += int64(len(n.bframes))
	for _, pkt := range pkts {
		n.accountLatency(at, pkt)
	}
}

// accountLatency records the measurement-latency histograms for the
// node's own (non-duplicate, non-replayed) sample.
func (n *CollectorNode) accountLatency(at units.Time, pkt *sim.Packet) {
	if pkt.SentAt > 0 {
		n.SampleLatency.Observe(int64(at.Sub(pkt.SentAt)))
	}
	if pkt.EnteredSwitch > 0 {
		n.MirrorQueueLatency.Observe(int64(at.Sub(pkt.EnteredSwitch)))
	}
	if n.OnSample != nil {
		n.OnSample(at, pkt)
	}
}

// AttachInSwitch binds the collector to a switch's data-plane sample
// sink (§9.2's in-switch collector): samples arrive at switching time
// with no monitor port, no mirror queue, and no polling batch — only the
// fixed processing overhead applies.
func (n *CollectorNode) AttachInSwitch(sw *switchsim.Switch) {
	sw.SampleSink = func(now units.Time, pkt *sim.Packet) {
		if n.crashed {
			return
		}
		before := n.delivered
		n.ingestOne(now.Add(n.overhead), pkt)
		if n.flt != nil {
			// Each sample is its own batch: no hold outlives it.
			n.flt.Flush(n.deliverHeld)
		}
		if n.Tracer != nil {
			capAt := pkt.SentAt
			if capAt == 0 {
				capAt = now
			}
			n.Tracer.StampCapture(capAt)
		}
		if n.delivered > before {
			n.lastDelivery = now
		}
		if n.OnBatchEnd != nil {
			n.OnBatchEnd(now)
		}
	}
}

// Collector returns the wrapped collector.
func (n *CollectorNode) Collector() *core.Collector { return n.col }

// Name implements sim.Node.
func (n *CollectorNode) Name() string { return "collector" }

// Receive implements sim.Node: buffer the frame until the next poll.
// While crashed, frames fall on the floor — nothing reads the ring.
func (n *CollectorNode) Receive(now units.Time, _ *sim.Port, pkt *sim.Packet) {
	if n.crashed {
		n.eng.FreePacket(pkt)
		return
	}
	n.pending = append(n.pending, pkt)
	if n.ticker == nil {
		n.ticker = sim.NewTicker(n.eng, n.poll, n.deliver)
	}
}

// deliver flushes the pending batch into the collector.
func (n *CollectorNode) deliver(now units.Time) {
	if n.crashed || len(n.pending) == 0 {
		return
	}
	// A stalled collector stops consuming: frames stay queued (kernel
	// buffers grow) and are delivered — with correspondingly later
	// timestamps — once the stall window passes.
	if n.sched.StallActive(now) {
		return
	}
	before := n.delivered
	at := now.Add(n.overhead)
	var capAt units.Time
	if n.Tracer != nil {
		// The earliest sender stamp in the batch approximates the
		// capture time of whichever sample triggers an event during this
		// ingest (overestimating detection by at most one poll).
		for _, pkt := range n.pending {
			if pkt.SentAt > 0 && (capAt == 0 || pkt.SentAt < capAt) {
				capAt = pkt.SentAt
			}
		}
	}
	if n.flt == nil {
		// Fault-free path: one IngestBatch per poll tick.
		n.deliverBatch(at, n.pending)
		for _, pkt := range n.pending {
			n.eng.FreePacket(pkt)
		}
	} else {
		// The fault layer rewrites each frame's delivery (skew, drops,
		// duplicates, holds), so faulted streams stay per-frame, and a
		// frame held for reordering goes out by the poll's end.
		for _, pkt := range n.pending {
			n.ingestOne(at, pkt)
			n.eng.FreePacket(pkt)
		}
		n.flt.Flush(n.deliverHeld)
	}
	n.pending = n.pending[:0]
	if n.Tracer != nil {
		// Span births are synchronous inside IngestBatch, so every span
		// this batch opened exists by now.
		if capAt == 0 {
			capAt = at
		}
		n.Tracer.StampCapture(capAt)
	}
	if n.delivered > before {
		n.lastDelivery = now
	}
	if n.OnBatchEnd != nil {
		n.OnBatchEnd(now)
	}
}
