// Package tcpsim models end hosts running a Reno-family TCP stack over a
// single NIC. The model is segment-level and captures the behaviours the
// paper's measurements hinge on:
//
//   - slow-start bursts separated by idle gaps (what makes naive
//     microsecond rate estimates jitter, Fig. 10a, and what the burst
//     clustering in the collector smooths, Fig. 10b);
//   - ACK clocking and sender burstiness at 10 Gbps (Figs. 5–7);
//   - loss response: dup-ACK fast retransmit/fast recovery and RTO, which
//     produce the 99.9th-percentile latency inflation of Fig. 3;
//   - kernel send/receive path latency, which is both the dominant term
//     of the testbed's 180–250 µs RTT and the offset between a tcpdump
//     timestamp and the wire (the paper's sample-latency measurements are
//     explicitly "strict overestimates" for this reason, §5.2).
//
// Hosts also own an ARP cache with the Linux behaviour §6.2 relies on:
// MAC learning from unicast ARP requests, with the cache-entry lock
// time at zero (the sysctl the authors had to relax), so every update
// lands.
package tcpsim

import (
	"fmt"
	"math/rand"

	"planck/internal/packet"
	"planck/internal/sim"
	"planck/internal/units"
)

// The host model's fixed tuning, matching the paper's Linux 3.5
// testbed.
const (
	// TxDelayMin/Max bound the uniformly distributed kernel send-path
	// latency applied between the stack emitting a segment (the tcpdump
	// stamp) and the NIC queue receiving it.
	TxDelayMin = 50 * units.Microsecond
	TxDelayMax = 90 * units.Microsecond
	// RxDelayMin/Max bound the receive-path latency between the NIC and
	// the stack processing a packet.
	RxDelayMin = 20 * units.Microsecond
	RxDelayMax = 40 * units.Microsecond
	// MSS is the TCP maximum segment size in bytes.
	MSS int = 1460
	// InitialCwndSegments is the initial congestion window (IW10 on the
	// testbed's Linux 3.5).
	InitialCwndSegments int = 10
	// MinRTO and InitialRTO follow RFC 6298 with the Linux 200 ms floor.
	MinRTO     = 200 * units.Millisecond
	InitialRTO = 1000 * units.Millisecond
	// DelAckSegments is the number of full segments that trigger an
	// immediate ACK; DelAckTimeout bounds how long an ACK may be held.
	// Linux's delayed-ACK timeout adapts down to TCP_ATO_MIN scale on
	// fast LANs; 4 ms approximates the testbed's effective ATO.
	DelAckSegments int = 2
	DelAckTimeout      = 4 * units.Millisecond
	// RWnd caps the amount of unacknowledged in-flight data a sender may
	// have, modelling the receiver's advertised window.
	RWnd int64 = 16 << 20
)

// nicQueuePackets caps the NIC transmit queue. TCP senders treat the
// cap as backpressure (as Linux qdisc/BQL accounting does) and stop
// emitting data until the queue drains; non-TCP traffic that overruns
// the cap is tail-dropped.
const nicQueuePackets = 1000

type connKey struct {
	remoteIP   uint32
	remotePort uint16
	localPort  uint16
}

// Host is an end host with one NIC and a TCP stack.
type Host struct {
	eng  *sim.Engine
	name string
	rng  *rand.Rand
	// reno selects Reno congestion control instead of the testbed's
	// Linux default, CUBIC: the reference the CUBIC tests compare
	// against.
	reno bool

	mac packet.MAC
	ip  packet.IPv4

	nic  *sim.Port
	nicQ nicQueue

	arp map[uint32]packet.MAC

	conns    map[connKey]*Conn
	nextPort uint16

	lastNICEnq units.Time // monotonic clamp for jittered tx delays
	lastRxDone units.Time // monotonic clamp for jittered rx delays
	txBacklog  int        // packets emitted but not yet on the wire

	// OnSegmentSent observes every TCP segment the stack emits, at emit
	// time (i.e., a sender-side tcpdump). Used by experiments needing
	// ground-truth sender traces (Figs. 7, 11).
	OnSegmentSent func(now units.Time, pkt *sim.Packet)

	// OnARPUpdate observes ARP cache changes (used by reroute latency
	// instrumentation).
	OnARPUpdate func(now units.Time, ip packet.IPv4, mac packet.MAC)

	// OnDelivered observes every packet the stack processes (after the
	// receive path), i.e., a receiver-side tcpdump. The packet is only
	// valid during the call.
	OnDelivered func(now units.Time, pkt *sim.Packet)

	// Accept decides whether to accept an incoming connection; nil
	// accepts everything.
	Accept func(k packet.FlowKey) bool

	// NICDrops counts local transmit-queue overflow drops.
	NICDrops int64

	udpSink udpSinkFn

	rxq rxQueue
}

// NewHost creates a host with one NIC at the given rate. The NIC port is
// unconnected; wire it with sim.Connect.
func NewHost(eng *sim.Engine, name string, mac packet.MAC, ip packet.IPv4, nicRate units.Rate, rng *rand.Rand) *Host {
	if rng == nil {
		panic("tcpsim: NewHost requires a deterministic rng")
	}
	h := &Host{
		eng:      eng,
		name:     name,
		rng:      rng,
		mac:      mac,
		ip:       ip,
		arp:      make(map[uint32]packet.MAC),
		conns:    make(map[connKey]*Conn),
		nextPort: 10000,
	}
	h.nic = sim.NewPort(eng, h, 0, nicRate)
	h.nicQ.h = h
	h.nic.SetSource(&h.nicQ)
	h.rxq.h = h
	return h
}

// Name implements sim.Node.
func (h *Host) Name() string { return h.name }

// NIC returns the host's port.
func (h *Host) NIC() *sim.Port { return h.nic }

// MAC returns the host's hardware address.
func (h *Host) MAC() packet.MAC { return h.mac }

// SetNeighbor installs a static ARP entry (the lab pre-populates these,
// as the testbed did).
func (h *Host) SetNeighbor(ip packet.IPv4, mac packet.MAC) {
	h.arp[ip.U32()] = mac
}

// LookupNeighbor returns the current MAC for ip.
func (h *Host) LookupNeighbor(ip packet.IPv4) (packet.MAC, bool) {
	mac, ok := h.arp[ip.U32()]
	return mac, ok
}

// txDelay samples the kernel send-path latency.
func (h *Host) txDelay() units.Duration {
	return jitter(h.rng, TxDelayMin, TxDelayMax)
}

func (h *Host) rxDelay() units.Duration {
	return jitter(h.rng, RxDelayMin, RxDelayMax)
}

func jitter(rng *rand.Rand, lo, hi units.Duration) units.Duration {
	if hi <= lo {
		return lo
	}
	return lo + units.Duration(rng.Int63n(int64(hi-lo)))
}

// txBacklog is the number of packets the stack has emitted that have not
// yet left the NIC (kernel pipeline + NIC queue). TCP data transmission
// pauses while it meets the queue cap.
func (h *Host) txBacklogFull() bool { return h.txBacklog >= nicQueuePackets }

// sendPacket stamps pkt and moves it through the modelled kernel send path
// into the NIC queue, preserving FIFO order despite jitter.
func (h *Host) sendPacket(now units.Time, pkt *sim.Packet) {
	pkt.SentAt = now
	if h.OnSegmentSent != nil && pkt.Kind == sim.KindTCP {
		h.OnSegmentSent(now, pkt)
	}
	h.txBacklog++
	at := now.Add(h.txDelay())
	if at < h.lastNICEnq {
		at = h.lastNICEnq
	}
	h.lastNICEnq = at
	h.eng.Schedule(at, &h.nicQ, pkt)
}

// nicQueue is the NIC transmit queue; it doubles as the Handler for
// send-path-delay completion events.
type nicQueue struct {
	h    *Host
	fifo sim.Fifo
}

// Handle implements sim.Handler: the segment has traversed the kernel and
// reaches the NIC queue. TCP respects backpressure upstream and never
// overruns; anything else (e.g. an unthrottled CBR source) tail-drops.
func (q *nicQueue) Handle(now units.Time, pkt *sim.Packet) {
	if pkt.Kind != sim.KindTCP && q.fifo.Len() >= nicQueuePackets {
		q.h.NICDrops++
		q.h.txBacklog--
		q.h.eng.FreePacket(pkt)
		return
	}
	q.fifo.Enqueue(pkt)
	q.h.nic.Kick(now)
}

// Dequeue implements sim.Outbound: the wire consumed a packet, so the
// backlog shrinks; senders blocked on backpressure get another turn.
// SentAt is restamped here because this is where a sender-side tcpdump
// observes the packet — Linux packet taps run after the qdisc, so queue
// wait does not count toward measured sample latency (§5.2 measures from
// this stamp and notes it still overestimates slightly).
func (q *nicQueue) Dequeue(now units.Time) *sim.Packet {
	pkt := q.fifo.Dequeue(now)
	if pkt != nil {
		pkt.SentAt = now
		q.h.txBacklog--
		if q.h.txBacklog == nicQueuePackets-1 {
			q.h.kickBlockedSenders(now)
		}
	}
	return pkt
}

// kickBlockedSenders lets connections with pending data resume after NIC
// backpressure eases.
func (h *Host) kickBlockedSenders(now units.Time) {
	for _, c := range h.conns {
		if !c.Completed && c.flowSize > 0 && c.state == stateEstablished {
			if c.inRecov {
				c.recoverySend(now, 2)
			} else {
				c.trySend(now)
			}
		}
	}
}

// Receive implements sim.Node: NIC receive, deferred by the kernel
// receive path before the stack processes it.
func (h *Host) Receive(now units.Time, _ *sim.Port, pkt *sim.Packet) {
	at := now.Add(h.rxDelay())
	if at < h.lastRxDone {
		at = h.lastRxDone
	}
	h.lastRxDone = at
	h.eng.Schedule(at, &h.rxq, pkt)
}

// rxQueue is the Handler for receive-path-delay completion.
type rxQueue struct{ h *Host }

// Handle implements sim.Handler.
func (q *rxQueue) Handle(now units.Time, pkt *sim.Packet) {
	q.h.process(now, pkt)
}

// process is the host stack demultiplexer.
func (h *Host) process(now units.Time, pkt *sim.Packet) {
	defer h.eng.FreePacket(pkt)
	if h.OnDelivered != nil {
		h.OnDelivered(now, pkt)
	}
	switch pkt.Kind {
	case sim.KindARP:
		h.processARP(now, &pkt.ARP)
	case sim.KindTCP:
		h.processTCP(now, pkt)
	case sim.KindUDP:
		// UDP sinks just count; see udp.go.
		if h.udpSink != nil {
			h.udpSink(now, pkt)
		}
	}
}

// processARP implements the Linux behaviour §6.2 depends on: a unicast
// ARP request updates (learns) the sender mapping.
func (h *Host) processARP(now units.Time, a *packet.ARP) {
	if a.TargetIP != h.ip {
		return
	}
	key := a.SenderIP.U32()
	if m, ok := h.arp[key]; ok && m == a.SenderMAC {
		return // no change
	}
	h.arp[key] = a.SenderMAC
	if h.OnARPUpdate != nil {
		h.OnARPUpdate(now, a.SenderIP, a.SenderMAC)
	}
}

func (h *Host) processTCP(now units.Time, pkt *sim.Packet) {
	key := connKey{remoteIP: pkt.SrcIP.U32(), remotePort: pkt.SrcPort, localPort: pkt.DstPort}
	c, ok := h.conns[key]
	if !ok {
		if pkt.TCPFlags&packet.TCPSyn == 0 || pkt.TCPFlags&packet.TCPAck != 0 {
			return // no connection and not a connection attempt
		}
		if h.Accept != nil {
			fk := pkt.FlowKey()
			if !h.Accept(fk) {
				return
			}
		}
		c = h.acceptConn(now, key, pkt)
	}
	c.segmentArrived(now, pkt)
}

// allocPort hands out an ephemeral local port.
func (h *Host) allocPort() uint16 {
	for {
		p := h.nextPort
		h.nextPort++
		if h.nextPort < 10000 {
			h.nextPort = 10000
		}
		// Ports must be unique per (remote) tuple; a global uniqueness
		// scan is cheap at our connection counts.
		inUse := false
		for k := range h.conns {
			if k.localPort == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
}

// String implements fmt.Stringer.
func (h *Host) String() string {
	return fmt.Sprintf("host %s (%s, %s)", h.name, h.mac, h.ip)
}
