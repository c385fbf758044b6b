// Package planck is the public facade of this repository: a faithful Go
// reproduction of "Planck: Millisecond-scale Monitoring and Control for
// Commodity Networks" (SIGCOMM 2014).
//
// The package re-exports the pieces a downstream user composes:
//
//   - the collector (the paper's core contribution): feed it timestamped
//     Ethernet frames from any source — a pcap file, a live stream, or
//     the bundled simulator — and query flow rates, link utilization,
//     and congestion events (NewCollector, ReplayPcap);
//   - the rate estimator on its own, for embedding in other pipelines
//     (NewRateEstimator);
//   - the simulated testbed: switches with oversubscribed mirroring,
//     TCP hosts, fat-tree topologies, an SDN controller, and the
//     traffic-engineering application (NewFatTreeTestbed,
//     NewSingleSwitchTestbed, AttachPlanckTE);
//   - the experiment harnesses regenerating every table and figure in
//     the paper's evaluation (package internal/experiments, surfaced
//     through cmd/planck-bench).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package planck

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"syscall"

	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/lab"
	"planck/internal/pcap"
	"planck/internal/te"
	"planck/internal/topo"
	"planck/internal/units"
)

// Re-exported core types.
type (
	// Collector consumes sampled frames and produces flow rates, link
	// utilization, and congestion events.
	Collector = core.Collector
	// CollectorConfig tunes a Collector.
	CollectorConfig = core.Config
	// CongestionEvent is a threshold-crossing notification.
	CongestionEvent = core.CongestionEvent
	// FlowInfo annotates a flow inside an event.
	FlowInfo = core.FlowInfo
	// RateEstimator is the burst-clustered sequence-number estimator.
	RateEstimator = core.RateEstimator

	// Testbed is an assembled simulated network.
	Testbed = lab.Lab
	// TestbedOptions configures a Testbed.
	TestbedOptions = lab.Options

	// TrafficEngineer is the PlanckTE application.
	TrafficEngineer = te.PlanckTE

	// Time and Duration are virtual-clock quantities (int64 nanoseconds).
	Time = units.Time
	// Duration is a span of virtual time.
	Duration = units.Duration
	// Rate is a data rate in bits per second.
	Rate = units.Rate

	// FaultSchedule describes which faults are active when; build one
	// with ParseFaultSpec or faults.NewSchedule.
	FaultSchedule = faults.Schedule
	// FaultRule is one activation window inside a FaultSchedule.
	FaultRule = faults.Rule
	// FaultKind enumerates the injectable fault classes.
	FaultKind = faults.Kind
	// FaultInjector actuates a schedule's mirror-path faults on a frame
	// stream.
	FaultInjector = faults.Injector
	// FaultMetrics counts injected faults.
	FaultMetrics = faults.Metrics
	// FaultyIngester interposes a FaultInjector in front of any Ingester.
	FaultyIngester = faults.FaultyIngester

	// BatchError reports partial failure inside an IngestBatch call:
	// how many frames failed, the index of the first failure, and its
	// error. The rest of the batch was still processed.
	BatchError = core.BatchError
)

// Common rate constants.
const (
	Gbps = units.Gbps
	Mbps = units.Mbps
)

// NewCollector builds a standalone collector. Feed it with
// Collector.Ingest(timestamp, frame).
func NewCollector(cfg CollectorConfig) *Collector { return core.New(cfg) }

// Ingester consumes timestamped Ethernet frames. *Collector satisfies
// it, as does a FaultyIngester wrapping one; every stream entry point in
// this package accepts any Ingester.
//
// IngestBatch processes len(ts) samples in one call; it is semantically
// an Ingest loop (same per-frame accounting, same end state,
// order-sensitive effects included), but amortizes per-call overhead
// when the batch's timestamps are non-decreasing. Per-frame failures do
// not stop the batch; they are aggregated into a *BatchError.
//
// Ingester is an alias of core.Ingester, the seam the lab's capture
// stack, the fault injector, and the UDP/pcap transports all share.
type Ingester = core.Ingester

// NewRateEstimator returns an estimator with the paper's constants
// (200 µs minimum burst gap, 700 µs maximum window).
func NewRateEstimator() *RateEstimator { return core.NewRateEstimator() }

// ParseFaultSpec parses the compact fault-spec grammar shared by tests,
// planck-sim, and planck-collector, e.g.
// "loss:0.05,skew:200us@10ms-,crash@61ms". See faults.ParseSpec for the
// full grammar.
func ParseFaultSpec(spec string) (*FaultSchedule, error) { return faults.ParseSpec(spec) }

// WrapFaults interposes a seeded fault injector in front of any
// ingester: frames pass through sched's mirror-path faults
// (loss/corruption/duplication/reordering/skew) before next sees them.
// Identical (spec, seed, stream) triples inject identical faults.
func WrapFaults(next Ingester, sched *FaultSchedule, seed int64) *FaultyIngester {
	return faults.Wrap(next, faults.NewInjector(sched, seed, nil))
}

// replayPcapBatch is how many frames ReplayPcap accumulates before
// handing them to the collector in one IngestBatch call.
const replayPcapBatch = 64

// ReplayPcap streams a pcap file through a collector, returning the
// number of frames ingested. Decode errors on individual frames are
// counted by the collector and do not abort the replay.
//
// Frames are delivered in IngestBatch calls of up to replayPcapBatch.
// The pcap reader reuses one scratch buffer per record, so each batch's
// frames are staged in a reusable arena; steady-state replay performs
// no per-frame allocation.
func ReplayPcap(r io.Reader, c Ingester) (int, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return 0, err
	}
	var (
		ts     []units.Time
		offs   []int // frame i is arena[offs[i]:offs[i+1]]
		arena  []byte
		frames [][]byte
	)
	n := 0
	flush := func() {
		if len(ts) == 0 {
			return
		}
		frames = frames[:0]
		for i := 0; i+1 < len(offs); i++ {
			frames = append(frames, arena[offs[i]:offs[i+1]])
		}
		_ = c.IngestBatch(ts, frames) // per-frame errors are counted in Stats
		n += len(ts)
		ts, offs, arena = ts[:0], offs[:0], arena[:0]
	}
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			flush()
			return n, nil
		}
		if err != nil {
			flush()
			return n, err
		}
		if len(offs) == 0 {
			offs = append(offs, 0)
		}
		ts = append(ts, rec.Time)
		arena = append(arena, rec.Data...)
		offs = append(offs, len(arena))
		if len(ts) == replayPcapBatch {
			flush()
		}
	}
}

// Live sample transport: one UDP datagram per sampled frame, prefixed by
// an 8-byte big-endian nanosecond timestamp. This is the encapsulation a
// capture shim (netmap, AF_PACKET, a switch CPU) uses to feed a remote
// collector, mirroring the paper's collector-per-monitor-port deployment
// without requiring raw-socket privileges.
const sampleHeaderLen = 8

// EncodeSample prepends the transport header to a frame.
func EncodeSample(buf []byte, t Time, frame []byte) []byte {
	need := sampleHeaderLen + len(frame)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.BigEndian.PutUint64(buf[:8], uint64(t))
	copy(buf[8:], frame)
	return buf
}

// DecodeSample splits a datagram into timestamp and frame.
func DecodeSample(dgram []byte) (Time, []byte, error) {
	if len(dgram) < sampleHeaderLen {
		return 0, nil, fmt.Errorf("planck: sample datagram %d bytes", len(dgram))
	}
	return Time(binary.BigEndian.Uint64(dgram[:8])), dgram[8:], nil
}

// UDPServeStats counts what a live UDP ingest loop saw. All fields are
// atomic so a monitoring goroutine (e.g. a metrics endpoint) can read
// them while the serve loop runs.
type UDPServeStats struct {
	// Samples counts well-formed datagrams handed to the collector.
	Samples atomic.Int64
	// ShortDatagrams counts datagrams too short to carry the transport
	// header (malformed sender or truncation in flight).
	ShortDatagrams atomic.Int64
	// TimestampRegressions counts datagrams whose timestamp ran
	// backwards relative to the previous sample — the signature of a
	// confused or unsynchronized capture shim.
	TimestampRegressions atomic.Int64
	// IngestErrors counts frames the collector rejected (frames that
	// failed to parse as Ethernet/IPv4/TCP-UDP).
	IngestErrors atomic.Int64
	// UnbatchedServes counts serve loops that started on the
	// one-datagram-per-cycle fallback: conn was not a *net.UDPConn, or
	// the platform cannot read a socket without blocking. Each such loop
	// hands the collector one sample per IngestBatch call.
	UnbatchedServes atomic.Int64
}

// DefaultUDPBatch is the drain-cycle batch size ServeUDPBatched uses
// when batch <= 0: large enough to amortize the collector's per-call
// overhead under load, small enough that one cycle's buffers stay
// cache-resident.
const DefaultUDPBatch = 32

// ServeUDPBatched ingests encapsulated samples from conn into c until
// maxSamples header-carrying datagrams have arrived (0 = unbounded) or a
// read fails, and returns how many arrived. It blocks for the first
// datagram of a cycle, then takes whatever else the kernel already has
// queued — up to batch datagrams (batch <= 0 selects DefaultUDPBatch),
// without waiting for more — and hands the whole cycle to the collector
// in one IngestBatch call. A cycle therefore ends the moment the socket
// is empty: a sample is never held back to fill a batch. Under a sparse
// stream every cycle holds one sample; under a dense stream the
// per-sample syscall remains but every other per-sample cost (readiness
// wait, timestamp-monotonicity bookkeeping, collector call overhead,
// sample counting) is amortized across the cycle. Datagram buffers come
// from one preallocated ring reused every cycle, so the steady-state loop
// performs no per-datagram allocation.
//
// Only a *net.UDPConn on a Unix system can be asked for a datagram
// without waiting for one; on any other net.PacketConn a cycle is its
// one blocking read, and st counts the loop in UnbatchedServes.
//
// When st is non-nil every datagram lands in one of its counters. A
// datagram too short for the header is a ShortDatagram and does not
// count toward maxSamples. One whose timestamp is older than the last
// enqueued one is a TimestampRegression and is dropped before the
// collector sees it, so every batch is monotone. Frames the collector
// rejects are IngestErrors; the rest are Samples.
//
// The loop never touches conn's read deadline: setting one (or closing
// conn) is how a caller stops it. A read error after useful work
// returns (n, nil), with the pending cycle flushed first; before any
// work it returns the error.
func ServeUDPBatched(conn net.PacketConn, c Ingester, maxSamples, batch int, st *UDPServeStats) (int, error) {
	if batch <= 0 {
		batch = DefaultUDPBatch
	}
	raw := rawUDPConn(conn)
	if raw == nil {
		batch = 1
		if st != nil {
			st.UnbatchedServes.Add(1)
		}
	}

	const bufSize = 65536
	backing := make([]byte, batch*bufSize)
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = backing[i*bufSize : (i+1)*bufSize : (i+1)*bufSize]
	}
	ts := make([]Time, 0, batch)
	frames := make([][]byte, 0, batch)

	n := 0
	var lastT Time
	// enqueue adds the datagram to the cycle. Header-carrying datagrams
	// count toward maxSamples (even when later rejected), short ones do
	// not.
	enqueue := func(dgram []byte) {
		t, frame, err := DecodeSample(dgram)
		if err != nil {
			if st != nil {
				st.ShortDatagrams.Add(1)
			}
			return
		}
		n++
		if t < lastT {
			if st != nil {
				st.TimestampRegressions.Add(1)
			}
			return
		}
		lastT = t
		ts = append(ts, t)
		frames = append(frames, frame)
	}
	flush := func() {
		if len(ts) == 0 {
			return
		}
		failed := 0
		if err := c.IngestBatch(ts, frames); err != nil {
			var be *BatchError
			if errors.As(err, &be) {
				failed = be.Failed
			} else {
				failed = len(ts)
			}
			if st != nil {
				st.IngestErrors.Add(int64(failed))
			}
		}
		if st != nil {
			st.Samples.Add(int64(len(ts) - failed))
		}
		ts, frames = ts[:0], frames[:0]
	}
	wanted := func() bool { return maxSamples == 0 || n < maxSamples }

	// readCycle blocks for one datagram and enqueues it and, on a raw
	// socket, every datagram queued behind it that the cycle has room
	// for. It returns the read error that ended the cycle, if one did.
	var readCycle func() error
	if raw == nil {
		readCycle = func() error {
			ln, _, err := conn.ReadFrom(bufs[0])
			if err == nil {
				enqueue(bufs[0][:ln])
			}
			return err
		}
	} else {
		// drain runs under raw.Read, which calls it again once the socket
		// is readable whenever it returns false: it does so only while the
		// cycle is empty, so EAGAIN after the first datagram means the
		// kernel's queue is drained and ends the cycle at once. Declared
		// once, outside the loop, so a cycle allocates nothing.
		var k int
		var readErr error
		drain := func(fd uintptr) bool {
			for k < batch && wanted() {
				ln, err := recvNonblocking(fd, bufs[k])
				if err == syscall.EAGAIN {
					return k > 0
				}
				if err != nil {
					readErr = fmt.Errorf("planck: udp read: %w", err)
					return true
				}
				enqueue(bufs[k][:ln])
				k++
			}
			return true
		}
		readCycle = func() error {
			k, readErr = 0, nil
			if err := raw.Read(drain); err != nil {
				return err
			}
			return readErr
		}
	}

	for wanted() {
		err := readCycle()
		flush()
		if err != nil {
			if n > 0 {
				return n, nil // closed after useful work
			}
			return n, err
		}
	}
	return n, nil
}

// NewFatTreeTestbed assembles the paper's 16-host, 20-switch fat-tree
// with oversubscribed mirroring, one collector per switch, and the SDN
// controller, all driven by a deterministic seed.
func NewFatTreeTestbed(seed int64) (*Testbed, error) {
	return lab.New(lab.Options{
		Net:    topo.FatTree16(units.Rate10G),
		Mirror: true,
		Seed:   seed,
	})
}

// NewSingleSwitchTestbed assembles an n-host single switch with a
// monitor port — the configuration of every §5 microbenchmark.
func NewSingleSwitchTestbed(hosts int, seed int64) (*Testbed, error) {
	return lab.New(lab.Options{
		Net:    topo.SingleSwitch("sw0", hosts, units.Rate10G, true),
		Mirror: true,
		Seed:   seed,
	})
}

// NewTestbedWithRing is NewSingleSwitchTestbed with vantage-point sample
// rings of ringPackets frames enabled on every collector (§6.1).
func NewTestbedWithRing(hosts int, seed int64, ringPackets int) (*Testbed, error) {
	return lab.New(lab.Options{
		Net:             topo.SingleSwitch("sw0", hosts, units.Rate10G, true),
		Mirror:          true,
		Seed:            seed,
		CollectorConfig: core.Config{RingPackets: ringPackets},
	})
}

// AttachPlanckTE starts the traffic-engineering application (§6.2) on a
// testbed: greedy rerouting over shadow-MAC alternate paths, actuated by
// spoofed ARP, driven by collector congestion events.
func AttachPlanckTE(t *Testbed) *TrafficEngineer {
	return te.NewPlanckTE(t.Ctrl, te.DefaultPlanckTEConfig())
}

// HostIP returns the address of testbed host h (hosts are numbered from
// zero, contiguous within fat-tree pods).
func HostIP(h int) [4]byte { return topo.HostIP(h) }
