package sim

import (
	"fmt"

	"planck/internal/units"
)

// Node is anything that terminates links: hosts, switches, collectors.
type Node interface {
	// Receive is invoked when the last bit of pkt arrives on port.
	// Ownership of pkt transfers to the node.
	Receive(now units.Time, port *Port, pkt *Packet)
	// Name identifies the node in logs and topology dumps.
	Name() string
}

// Outbound supplies a port with packets to transmit. Implementations own
// their queueing discipline (hosts use an unbounded FIFO, switches a
// shared-buffer queue).
type Outbound interface {
	// Dequeue returns the next packet for the wire, or nil when idle.
	Dequeue(now units.Time) *Packet
}

// EthernetOverhead is the per-frame wire overhead beyond the L2 frame:
// preamble (8) + FCS (4) + inter-frame gap (12). A 1500-byte IP MTU thus
// occupies 1538 byte-times, which is what caps TCP goodput at ~9.5 Gbps on
// a 10 Gbps link, matching the testbed numbers in the paper.
const EthernetOverhead = 24

// Port is one end of a full-duplex point-to-point link. Transmission is
// pull-based: when idle the port asks its Outbound source for the next
// packet; sources call Kick after enqueueing to (re)start the pump.
type Port struct {
	eng   *Engine
	owner Node
	peer  *Port
	rate  units.Rate
	delay units.Duration
	src   Outbound

	busy bool

	// Index is owner-defined (switch port number, host NIC index).
	Index int

	// Counters on the transmit and receive sides.
	TxPackets, TxBytes int64
	RxPackets, RxBytes int64

	txDone txDoneEnd
	arrive arriveEnd
}

type txDoneEnd struct{ p *Port }
type arriveEnd struct{ p *Port }

// NewPort creates a port owned by node. Wire it with Connect.
func NewPort(eng *Engine, owner Node, index int, rate units.Rate) *Port {
	p := &Port{eng: eng, owner: owner, Index: index, rate: rate}
	p.txDone.p = p
	p.arrive.p = p
	return p
}

// Connect joins a and b with the given one-way propagation delay. Both
// ports must be unconnected and have the same rate (links are symmetric).
func Connect(a, b *Port, delay units.Duration) {
	if a.peer != nil || b.peer != nil {
		panic("sim: port already connected")
	}
	if a.rate != b.rate {
		panic(fmt.Sprintf("sim: rate mismatch %v vs %v", a.rate, b.rate))
	}
	a.peer, b.peer = b, a
	a.delay, b.delay = delay, delay
}

// SetSource installs the packet supplier feeding this port's transmitter.
func (p *Port) SetSource(src Outbound) { p.src = src }

// Peer returns the port at the other end of the link, or nil.
func (p *Port) Peer() *Port { return p.peer }

// Kick starts the transmit pump if the port is idle. Call after enqueueing
// to the port's source.
func (p *Port) Kick(now units.Time) {
	if p.busy || p.src == nil || p.peer == nil {
		return
	}
	pkt := p.src.Dequeue(now)
	if pkt == nil {
		return
	}
	p.busy = true
	p.TxPackets++
	p.TxBytes += int64(pkt.WireLen)
	d := p.rate.Serialize(pkt.WireLen + EthernetOverhead)
	p.eng.After(d, &p.txDone, pkt)
}

// Handle on txDoneEnd fires when the last bit leaves the wire: propagate to
// the peer and pull the next packet.
func (t *txDoneEnd) Handle(now units.Time, pkt *Packet) {
	p := t.p
	p.eng.Schedule(now.Add(p.delay), &p.peer.arrive, pkt)
	p.busy = false
	p.Kick(now)
}

// Handle on arriveEnd fires when the packet reaches the far end.
func (a *arriveEnd) Handle(now units.Time, pkt *Packet) {
	p := a.p
	p.RxPackets++
	p.RxBytes += int64(pkt.WireLen)
	p.owner.Receive(now, p, pkt)
}

// Fifo is an unbounded FIFO Outbound, used by host NICs and test fixtures.
type Fifo struct {
	q    []*Packet
	head int
	// Bytes tracks the queued byte total.
	Bytes int64
}

// Enqueue appends a packet.
func (f *Fifo) Enqueue(pkt *Packet) {
	f.q = append(f.q, pkt)
	f.Bytes += int64(pkt.WireLen)
}

// Dequeue implements Outbound.
func (f *Fifo) Dequeue(now units.Time) *Packet {
	if f.head >= len(f.q) {
		return nil
	}
	pkt := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	f.Bytes -= int64(pkt.WireLen)
	if f.head*2 >= len(f.q) && f.head > 32 {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
	return pkt
}

// Len returns the number of queued packets.
func (f *Fifo) Len() int { return len(f.q) - f.head }
