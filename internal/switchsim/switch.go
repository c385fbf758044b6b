// Package switchsim models a shared-buffer, output-queued commodity
// Ethernet switch of the class the paper evaluates (IBM RackSwitch G8264,
// Pronto 3290; both Broadcom-ASIC designs). The model captures exactly the
// buffer-architecture phenomena Planck exploits and perturbs:
//
//   - a shared memory pool (9 MB on the Trident ASIC) divided dynamically
//     among congested output queues by a Dynamic Threshold (DT) policy,
//     so a single congested port can hold ~4 MB (§5.1);
//   - egress port mirroring: packets switched to a mirrored output port
//     are replicated to a designated monitor port;
//   - an oversubscribed monitor port that buffers up to a fixed firmware
//     allocation and tail-drops the rest, which is what turns mirroring
//     into load-proportional sampling (§3.1, Fig. 9);
//   - mirror-queue occupancy stealing shared buffer from data ports,
//     which is the cause of the small loss/latency perturbations in
//     Figs. 2–4.
//
// Forwarding is exact-match on destination MAC (the paper routes on MACs,
// §4.2), with an OpenFlow-style 5-tuple rule table ahead of it for rewrite
// actions and flow counters, and an egress shadow-MAC restore table.
package switchsim

import (
	"fmt"

	"planck/internal/packet"
	"planck/internal/sim"
	"planck/internal/stats"
	"planck/internal/units"
)

// Config describes a switch's buffer architecture.
type Config struct {
	// Name identifies the switch.
	Name string
	// NumPorts is the number of front-panel ports.
	NumPorts int
	// LineRate is the per-port rate.
	LineRate units.Rate
	// SharedBufferBytes is the dynamically shared packet memory pool.
	SharedBufferBytes int64
	// PerPortReserveBytes is the guaranteed allocation per output queue,
	// not counted against the shared pool.
	PerPortReserveBytes int64
	// DTAlpha is the Dynamic Threshold factor: a queue may grow to
	// reserve + alpha * (free shared pool). 0.8 makes a single congested
	// port consume ~4 MB of a 9 MB pool, matching §5.1.
	DTAlpha float64
	// MirrorBufferBytes caps the monitor-port queue. The paper infers the
	// G8264 firmware pins a fixed allocation (Fig. 9's flat latency); the
	// "minbuffer" rows of Table 1 correspond to shrinking this value.
	MirrorBufferBytes int64

	// --- §9.2 future-switch proposals, disabled by default ---

	// MirrorTargetRate, when positive, replaces oversubscribed mirroring
	// with the paper's "rate of samples" proposal: the switch admits
	// mirror copies through a token bucket refilled at this rate, so
	// samples are pre-thinned to what the monitor link can carry and the
	// mirror queue never builds the multi-millisecond backlog of Fig. 8.
	MirrorTargetRate units.Rate
	// MirrorPriorityFlags enables preferential sampling of packets with
	// TCP SYN/FIN/RST flags through a small dedicated allocation that is
	// served ahead of the normal mirror queue.
	MirrorPriorityFlags bool
}

// MirrorPriorityReserve sizes the allocation of the MirrorPriorityFlags
// class.
const MirrorPriorityReserve int64 = 32 << 10

// mirrorPriorityMaxFraction caps the share of transmitted samples the
// MirrorPriorityFlags class may take, so a SYN flood cannot suppress
// normal samples (§9.2's caveat).
const mirrorPriorityMaxFraction = 0.1

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.NumPorts <= 0:
		return fmt.Errorf("switchsim: %q: NumPorts %d", c.Name, c.NumPorts)
	case c.LineRate <= 0:
		return fmt.Errorf("switchsim: %q: LineRate %v", c.Name, c.LineRate)
	case c.SharedBufferBytes <= 0:
		return fmt.Errorf("switchsim: %q: SharedBufferBytes %d", c.Name, c.SharedBufferBytes)
	case c.DTAlpha <= 0:
		return fmt.Errorf("switchsim: %q: DTAlpha %g", c.Name, c.DTAlpha)
	case c.PerPortReserveBytes < 0:
		return fmt.Errorf("switchsim: %q: PerPortReserveBytes %d", c.Name, c.PerPortReserveBytes)
	case c.MirrorBufferBytes < 0:
		return fmt.Errorf("switchsim: %q: MirrorBufferBytes %d", c.Name, c.MirrorBufferBytes)
	}
	return nil
}

// FlowRule is an OpenFlow-style exact-match rule: count the flow and
// optionally rewrite its destination MAC (the paper's OpenFlow-based
// reroute mechanism, §6.2).
type FlowRule struct {
	Match packet.FlowKey
	// RewriteDst, when true, replaces the destination MAC with NewDst.
	RewriteDst bool
	NewDst     packet.MAC
	// Counter tracks packets and bytes hitting the rule, exposed to the
	// polling-based traffic-engineering baselines.
	Counter stats.Counter
}

// Switch is a simulated shared-buffer switch.
type Switch struct {
	eng  *sim.Engine
	cfg  Config
	name string

	ports  []*sim.Port
	queues []*outQueue

	macTable   map[uint64]int32      // dstMAC -> output port
	rewriteTab map[uint64]packet.MAC // shadow MAC -> real host MAC (egress restore)
	flowRules  map[packet.FlowKey]*FlowRule
	edgePort   []bool // host-facing ports, where ingress flow counters run

	// ingressCounters tracks per-flow bytes on edge ports, emulating the
	// per-flow OpenFlow counters the polling baselines read.
	ingressCounters map[packet.FlowKey]*stats.Counter

	mirrorEnabled bool
	monitorPort   int32
	mirrored      []bool // indexed by output port: replicate to monitor?

	// Per-port mirror-rate overrides installed at runtime by mirror-config
	// commits (governor tuning). A positive rate pre-thins that port's
	// copies through its own token bucket before any shared machinery;
	// zero leaves the construction-time behavior untouched.
	portMirrorRate []units.Rate
	portTokens     []float64
	portTokensAt   []units.Time

	// Priority mirror queue (§9.2 preferential sampling).
	prioQ     []*sim.Packet
	prioHead  int
	prioBytes int64
	// Served counters implement the priority-fraction cap.
	prioServed, mirrorServed int64
	monSrc                   monitorSource

	// Token bucket for target-rate mirroring (§9.2).
	mirrorTokens   float64
	mirrorTokensAt units.Time

	sharedUsed int64 // sum over queues of max(0, bytes-reserve)

	// Statistics.
	DataForwarded stats.Counter // packets enqueued to data ports
	DataDropped   stats.Counter // data packets dropped by buffer admission
	MirrorQueued  stats.Counter // mirror copies enqueued
	MirrorDropped stats.Counter // mirror copies dropped (the sampling drop)
	// MirrorThinned counts copies discarded by a governor-installed
	// per-port rate override. Thinning is configured sampling at a known
	// rate (§9.2), not an uncontrolled sampling drop, so it is accounted
	// apart from MirrorDropped — the governor's saturation signal must
	// clear once its own tuning has the queue under control.
	MirrorThinned stats.Counter
	// mirrorQueuedBy/mirrorDroppedBy/mirrorThinnedBy break the mirror
	// counters out by the mirrored source output port, so an estimator
	// can attribute sampling drops to the port whose traffic caused them.
	mirrorQueuedBy  []stats.Counter
	mirrorDroppedBy []stats.Counter
	mirrorThinnedBy []stats.Counter
	// MirrorPrioQueued counts samples admitted through the §9.2 priority
	// class.
	MirrorPrioQueued stats.Counter
	TableMisses      stats.Counter // packets with no MAC table entry

	// SampleSink, when set together with EnableMirror, realizes §9.2's
	// in-switch collector proposal: every would-be mirror copy is handed
	// to the sink at switching time instead of consuming a front-panel
	// port and buffer space. The packet is only valid during the call.
	SampleSink func(now units.Time, pkt *sim.Packet)
}

// New creates a switch and its ports. Ports are created unconnected; use
// Port(i) and sim.Connect to wire the topology.
func New(eng *sim.Engine, cfg Config) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sw := &Switch{
		eng:             eng,
		cfg:             cfg,
		name:            cfg.Name,
		macTable:        make(map[uint64]int32),
		rewriteTab:      make(map[uint64]packet.MAC),
		flowRules:       make(map[packet.FlowKey]*FlowRule),
		ingressCounters: make(map[packet.FlowKey]*stats.Counter),
		edgePort:        make([]bool, cfg.NumPorts),
		mirrored:        make([]bool, cfg.NumPorts),
		monitorPort:     -1,
		portMirrorRate:  make([]units.Rate, cfg.NumPorts),
		portTokens:      make([]float64, cfg.NumPorts),
		portTokensAt:    make([]units.Time, cfg.NumPorts),
		mirrorQueuedBy:  make([]stats.Counter, cfg.NumPorts),
		mirrorDroppedBy: make([]stats.Counter, cfg.NumPorts),
		mirrorThinnedBy: make([]stats.Counter, cfg.NumPorts),
	}
	sw.ports = make([]*sim.Port, cfg.NumPorts)
	sw.queues = make([]*outQueue, cfg.NumPorts)
	for i := 0; i < cfg.NumPorts; i++ {
		p := sim.NewPort(eng, sw, i, cfg.LineRate)
		q := &outQueue{sw: sw, port: p}
		p.SetSource(q)
		sw.ports[i] = p
		sw.queues[i] = q
	}
	return sw, nil
}

// Name implements sim.Node.
func (sw *Switch) Name() string { return sw.name }

// Port returns port i.
func (sw *Switch) Port(i int) *sim.Port { return sw.ports[i] }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// SetEdgePort marks port i as host-facing; packets arriving on edge ports
// update the per-flow ingress counters used by polling baselines.
func (sw *Switch) SetEdgePort(i int, edge bool) { sw.edgePort[i] = edge }

// EnableMirror designates monitorPort and replicates every packet switched
// to a port in mirroredOut (all data ports when nil) onto it.
func (sw *Switch) EnableMirror(monitorPort int, mirroredOut []int) {
	sw.mirrorEnabled = true
	sw.monitorPort = int32(monitorPort)
	if sw.cfg.MirrorPriorityFlags {
		sw.monSrc.sw = sw
		sw.ports[monitorPort].SetSource(&sw.monSrc)
	}
	for i := range sw.mirrored {
		sw.mirrored[i] = mirroredOut == nil && i != monitorPort
	}
	for _, p := range mirroredOut {
		sw.mirrored[p] = true
	}
	sw.mirrored[monitorPort] = false
}

// MonitorPort returns the designated monitor port, or -1 while
// mirroring is off.
func (sw *Switch) MonitorPort() int { return int(sw.monitorPort) }

// PortMirrored reports whether packets switched to output port p are
// currently replicated to the monitor port.
func (sw *Switch) PortMirrored(p int) bool {
	return sw.mirrorEnabled && p >= 0 && p < len(sw.mirrored) && sw.mirrored[p]
}

// SetPortMirrored sheds output port p from (or restores it to) the
// mirrored set at runtime — the management-plane actuation behind a
// ChangeMirrorPort diff entry. The monitor port itself stays
// unmirrored. Copies already buffered on the monitor queue drain
// normally; only the replication decision changes.
func (sw *Switch) SetPortMirrored(p int, on bool) {
	if p < 0 || p >= len(sw.mirrored) || int32(p) == sw.monitorPort {
		return
	}
	sw.mirrored[p] = on
}

// SetPortMirrorRate installs (r > 0) or clears (r == 0) a per-port
// "rate of samples" token bucket for output port p, effective from
// now. Distinct from the switch-wide Config.MirrorTargetRate: the
// per-port bucket is the governor's tuning knob and composes with the
// shared machinery downstream of it.
func (sw *Switch) SetPortMirrorRate(now units.Time, p int, r units.Rate) {
	if p < 0 || p >= len(sw.portMirrorRate) {
		return
	}
	sw.portMirrorRate[p] = r
	sw.portTokens[p] = 0
	sw.portTokensAt[p] = now
}

// PortMirrorRate returns output port p's per-port rate override (zero
// when none is installed).
func (sw *Switch) PortMirrorRate(p int) units.Rate {
	if p < 0 || p >= len(sw.portMirrorRate) {
		return 0
	}
	return sw.portMirrorRate[p]
}

// MirrorPortCounters returns the cumulative mirror copies queued and
// dropped for packets switched to output port p — the per-port
// breakdown of MirrorQueued/MirrorDropped that lets an estimator
// attribute sampling drops to the port whose traffic caused them.
func (sw *Switch) MirrorPortCounters(p int) (queued, dropped stats.Counter) {
	if p < 0 || p >= len(sw.mirrorQueuedBy) {
		return
	}
	return sw.mirrorQueuedBy[p], sw.mirrorDroppedBy[p]
}

// InstallMAC points dstMAC at output port out.
func (sw *Switch) InstallMAC(mac packet.MAC, out int) {
	if out < 0 || out >= len(sw.ports) {
		panic(fmt.Sprintf("switchsim: %s: InstallMAC port %d out of range", sw.name, out))
	}
	sw.macTable[mac.U64()] = int32(out)
}

// InstallMACs bulk-installs a whole forwarding table, as when a routing
// snapshot is (re)installed. Entries are validated like InstallMAC.
func (sw *Switch) InstallMACs(entries map[packet.MAC]int) {
	for mac, out := range entries {
		sw.InstallMAC(mac, out)
	}
}

// LookupMAC returns the output port for mac.
func (sw *Switch) LookupMAC(mac packet.MAC) (int, bool) {
	out, ok := sw.macTable[mac.U64()]
	return int(out), ok
}

// InstallRewrite adds an egress restore rule: packets destined to shadow
// are delivered with their destination rewritten to real (paper Fig. 13).
func (sw *Switch) InstallRewrite(shadow, real packet.MAC) {
	sw.rewriteTab[shadow.U64()] = real
}

// InstallRewrites bulk-installs egress restore rules from a routing
// snapshot's shadow→base table.
func (sw *Switch) InstallRewrites(rules map[packet.MAC]packet.MAC) {
	for shadow, real := range rules {
		sw.InstallRewrite(shadow, real)
	}
}

// InstallFlowRule adds or replaces a 5-tuple rule.
func (sw *Switch) InstallFlowRule(r FlowRule) *FlowRule {
	rule := r
	sw.flowRules[r.Match] = &rule
	return &rule
}

// IngressCounters exposes the whole edge counter table (read-only use).
func (sw *Switch) IngressCounters() map[packet.FlowKey]*stats.Counter {
	return sw.ingressCounters
}

// Receive implements sim.Node: the switching pipeline.
func (sw *Switch) Receive(now units.Time, in *sim.Port, pkt *sim.Packet) {
	if pkt.EnteredSwitch == 0 {
		pkt.EnteredSwitch = now
	}

	// Edge-port ingress flow accounting (TCP/UDP only).
	if sw.edgePort[in.Index] && pkt.Kind != sim.KindARP {
		k := pkt.FlowKey()
		c := sw.ingressCounters[k]
		if c == nil {
			c = &stats.Counter{}
			sw.ingressCounters[k] = c
		}
		c.Add(pkt.WireLen)
	}

	// OpenFlow-style rule table: counters + optional dst rewrite.
	if len(sw.flowRules) > 0 && pkt.Kind != sim.KindARP {
		if rule, ok := sw.flowRules[pkt.FlowKey()]; ok {
			rule.Counter.Add(pkt.WireLen)
			if rule.RewriteDst {
				pkt.DstMAC = rule.NewDst
			}
		}
	}

	// MAC exact-match forwarding.
	out, ok := sw.macTable[pkt.DstMAC.U64()]
	if !ok {
		sw.TableMisses.Add(pkt.WireLen)
		sw.eng.FreePacket(pkt)
		return
	}

	// Egress mirror replication happens on the forwarding decision, before
	// the shadow-MAC restore, so collectors observe the routing label.
	if sw.mirrorEnabled && sw.mirrored[out] {
		sw.enqueueMirror(now, int(out), pkt)
	}

	// Shadow-MAC restore at the destination's egress switch.
	if len(sw.rewriteTab) > 0 {
		if real, ok := sw.rewriteTab[pkt.DstMAC.U64()]; ok {
			pkt.DstMAC = real
		}
	}

	sw.enqueueData(now, int(out), pkt)
}

// Inject places a packet directly onto output port out's queue, modelling
// a control-plane packet-out (the controller's spoofed ARP reroutes enter
// the data plane this way). The packet is subject to normal buffer
// admission.
func (sw *Switch) Inject(now units.Time, out int, pkt *sim.Packet) {
	if pkt.EnteredSwitch == 0 {
		pkt.EnteredSwitch = now
	}
	sw.enqueueData(now, out, pkt)
}

// enqueueData applies the DT admission test and queues pkt for port out.
func (sw *Switch) enqueueData(now units.Time, out int, pkt *sim.Packet) {
	q := sw.queues[out]
	size := int64(pkt.WireLen)
	reserve := sw.cfg.PerPortReserveBytes
	free := clampPos(sw.cfg.SharedBufferBytes - sw.sharedUsed)
	threshold := reserve + int64(sw.cfg.DTAlpha*float64(free))
	if q.bytes+size > threshold {
		sw.DataDropped.Add(pkt.WireLen)
		sw.eng.FreePacket(pkt)
		return
	}
	sw.chargeShared(q, size)
	q.push(pkt)
	sw.DataForwarded.Add(pkt.WireLen)
	q.port.Kick(now)
}

// enqueueMirror replicates pkt onto the monitor queue, tail-dropping at
// the fixed mirror allocation. These drops ARE the sampling mechanism.
// out is the data output port the packet was switched to, used to
// attribute mirror accounting per mirrored source port.
func (sw *Switch) enqueueMirror(now units.Time, out int, pkt *sim.Packet) {
	size := int64(pkt.WireLen)

	// Governor-installed per-port rate override: pre-thin this port's
	// copies at replication time, ahead of any shared machinery, so a
	// tuned port cannot starve the others' share of the monitor queue.
	if r := sw.portMirrorRate[out]; r > 0 {
		if now > sw.portTokensAt[out] {
			sw.portTokens[out] += now.Sub(sw.portTokensAt[out]).Seconds() * float64(r) / 8
			if burst := float64(4 * 1538); sw.portTokens[out] > burst {
				sw.portTokens[out] = burst
			}
			sw.portTokensAt[out] = now
		}
		if sw.portTokens[out] < float64(size) {
			sw.MirrorThinned.Add(pkt.WireLen)
			sw.mirrorThinnedBy[out].Add(pkt.WireLen)
			return
		}
		sw.portTokens[out] -= float64(size)
	}

	if sw.SampleSink != nil {
		// §9.2 in-switch collector: no port, no queue, no buffering.
		sw.MirrorQueued.Add(pkt.WireLen)
		sw.mirrorQueuedBy[out].Add(pkt.WireLen)
		sw.SampleSink(now, pkt)
		return
	}

	// §9.2 "rate of samples": pre-thin through a token bucket instead of
	// letting the queue overflow; samples then see minimal buffering.
	if sw.cfg.MirrorTargetRate > 0 {
		if now > sw.mirrorTokensAt {
			sw.mirrorTokens += now.Sub(sw.mirrorTokensAt).Seconds() * float64(sw.cfg.MirrorTargetRate) / 8
			if burst := float64(4 * 1538); sw.mirrorTokens > burst {
				sw.mirrorTokens = burst
			}
			sw.mirrorTokensAt = now
		}
		if sw.mirrorTokens < float64(size) {
			sw.MirrorDropped.Add(pkt.WireLen)
			sw.mirrorDroppedBy[out].Add(pkt.WireLen)
			return
		}
		sw.mirrorTokens -= float64(size)
	}

	// §9.2 preferential sampling: connection-boundary packets ride a
	// small dedicated allocation served ahead of the normal queue.
	if sw.cfg.MirrorPriorityFlags && pkt.Kind == sim.KindTCP &&
		pkt.TCPFlags&(packet.TCPSyn|packet.TCPFin|packet.TCPRst) != 0 {
		if sw.prioBytes+size <= MirrorPriorityReserve && sw.sharedUsed+size <= sw.cfg.SharedBufferBytes {
			clone := sw.eng.ClonePacket(pkt)
			clone.Mirrored = true
			sw.prioQ = append(sw.prioQ, clone)
			sw.prioBytes += size
			sw.sharedUsed += size
			sw.MirrorPrioQueued.Add(clone.WireLen)
			sw.mirrorQueuedBy[out].Add(clone.WireLen)
			sw.ports[sw.monitorPort].Kick(now)
			return
		}
		// Fall through to the normal queue when the reserve is full.
	}

	q := sw.queues[sw.monitorPort]
	if q.bytes+size > sw.cfg.MirrorBufferBytes ||
		sw.sharedUsed+size > sw.cfg.SharedBufferBytes {
		sw.MirrorDropped.Add(pkt.WireLen)
		sw.mirrorDroppedBy[out].Add(pkt.WireLen)
		return
	}
	clone := sw.eng.ClonePacket(pkt)
	clone.Mirrored = true
	sw.chargeShared(q, size)
	q.push(clone)
	sw.MirrorQueued.Add(clone.WireLen)
	sw.mirrorQueuedBy[out].Add(clone.WireLen)
	q.port.Kick(now)
}

// monitorSource multiplexes the priority and normal mirror queues onto
// the monitor port, capping the priority class's share of transmissions.
type monitorSource struct {
	sw *Switch
}

// Dequeue implements sim.Outbound.
func (m *monitorSource) Dequeue(now units.Time) *sim.Packet {
	sw := m.sw
	prioAvail := sw.prioHead < len(sw.prioQ)
	normQ := sw.queues[sw.monitorPort]
	usePrio := prioAvail
	if prioAvail && normQ.bytes > 0 {
		// Both classes have traffic: honour the fraction cap.
		if float64(sw.prioServed) > mirrorPriorityMaxFraction*float64(sw.mirrorServed+1) {
			usePrio = false
		}
	}
	if usePrio {
		pkt := sw.prioQ[sw.prioHead]
		sw.prioQ[sw.prioHead] = nil
		sw.prioHead++
		if sw.prioHead*2 >= len(sw.prioQ) && sw.prioHead > 16 {
			n := copy(sw.prioQ, sw.prioQ[sw.prioHead:])
			sw.prioQ = sw.prioQ[:n]
			sw.prioHead = 0
		}
		sw.prioBytes -= int64(pkt.WireLen)
		sw.sharedUsed -= int64(pkt.WireLen)
		sw.prioServed++
		sw.mirrorServed++
		return pkt
	}
	pkt := normQ.Dequeue(now)
	if pkt != nil {
		sw.mirrorServed++
	}
	return pkt
}

// chargeShared accounts size bytes entering queue q against the pool.
func (sw *Switch) chargeShared(q *outQueue, size int64) {
	before := q.bytes - sw.cfg.PerPortReserveBytes
	q.bytes += size
	after := q.bytes - sw.cfg.PerPortReserveBytes
	sw.sharedUsed += clampPos(after) - clampPos(before)
}

// releaseShared accounts size bytes leaving queue q.
func (sw *Switch) releaseShared(q *outQueue, size int64) {
	before := q.bytes - sw.cfg.PerPortReserveBytes
	q.bytes -= size
	after := q.bytes - sw.cfg.PerPortReserveBytes
	sw.sharedUsed -= clampPos(before) - clampPos(after)
}

func clampPos(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// outQueue is one output port's FIFO with shared-buffer accounting.
type outQueue struct {
	sw    *Switch
	port  *sim.Port
	q     []*sim.Packet
	head  int
	bytes int64
}

func (q *outQueue) push(pkt *sim.Packet) {
	q.q = append(q.q, pkt)
}

// Dequeue implements sim.Outbound.
func (q *outQueue) Dequeue(now units.Time) *sim.Packet {
	if q.head >= len(q.q) {
		return nil
	}
	pkt := q.q[q.head]
	q.q[q.head] = nil
	q.head++
	if q.head*2 >= len(q.q) && q.head > 32 {
		n := copy(q.q, q.q[q.head:])
		q.q = q.q[:n]
		q.head = 0
	}
	q.sw.releaseShared(q, int64(pkt.WireLen))
	return pkt
}
