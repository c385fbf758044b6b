package tcpsim

import (
	"fmt"

	"planck/internal/sim"
	"planck/internal/units"
)

// udpSink, when set on a host, receives the UDP datagrams addressed to
// it, each valid only for the call; see Host.process.
type udpSinkFn func(now units.Time, pkt *sim.Packet)

// CBRSource emits constant-bit-rate UDP traffic, giving experiments a
// precisely controlled offered load (the oversubscription sweeps of
// Figs. 9 and 11 vary load in exact multiples of the monitor port rate).
type CBRSource struct {
	host    *Host
	dstIP   [4]byte
	srcPort uint16
	dstPort uint16
	payload int
	period  units.Duration
	flowID  int32

	seq     uint32
	running bool
	Sent    int64
}

// StartCBR begins emitting payload-byte datagrams to dstIP:dstPort at
// rate (measured in application payload bits/s). Stop with Stop.
func (h *Host) StartCBR(now units.Time, dstIP [4]byte, dstPort uint16, payload int, rate units.Rate, flowID int32) (*CBRSource, error) {
	if _, ok := h.LookupNeighbor(dstIP); !ok {
		return nil, fmt.Errorf("tcpsim: %s has no ARP entry for %v", h.name, dstIP)
	}
	if payload <= 0 || rate <= 0 {
		return nil, fmt.Errorf("tcpsim: CBR needs positive payload and rate")
	}
	s := &CBRSource{
		host:    h,
		dstIP:   dstIP,
		srcPort: h.allocPort(),
		dstPort: dstPort,
		payload: payload,
		period:  rate.Serialize(payload),
		flowID:  flowID,
		running: true,
	}
	h.eng.Schedule(now, s, nil)
	return s, nil
}

// Handle implements sim.Handler: emit one datagram and reschedule.
func (s *CBRSource) Handle(now units.Time, _ *sim.Packet) {
	if !s.running {
		return
	}
	h := s.host
	pkt := h.eng.NewPacket()
	pkt.Kind = sim.KindUDP
	pkt.SrcMAC = h.mac
	if mac, ok := h.LookupNeighbor(s.dstIP); ok {
		pkt.DstMAC = mac
	}
	pkt.SrcIP = h.ip
	pkt.DstIP = s.dstIP
	pkt.SrcPort = s.srcPort
	pkt.DstPort = s.dstPort
	pkt.Seq = s.seq // carried for instrumentation; not on the wire for UDP
	s.seq++
	pkt.PayloadLen = s.payload
	pkt.WireLen = s.payload + sim.UDPHeaderBytes
	pkt.FlowID = s.flowID
	h.sendPacket(now, pkt)
	s.Sent++
	h.eng.After(s.period, s, nil)
}
