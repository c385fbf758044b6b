package packet

import (
	"encoding/binary"
	"fmt"
)

// LayerMask records which layers a Decode found.
type LayerMask uint8

// Layer bits.
const (
	LayerEthernet LayerMask = 1 << iota
	LayerARP
	LayerIPv4
	LayerTCP
	LayerUDP
)

// Decoded is the result of parsing one frame. It is designed to be reused:
// Decode overwrites every field it sets and clears the mask first, so a
// collector can keep one Decoded per goroutine and parse millions of
// frames without allocating.
type Decoded struct {
	Layers LayerMask
	Eth    Ethernet
	ARP    ARP
	IP     IPv4Header
	TCP    TCPHeader
	UDP    UDPHeader

	// PayloadLen is the length in bytes of the application payload beyond
	// the innermost decoded header. For TCP over IPv4 it honours the IP
	// TotalLen field rather than the capture length, so truncated mirror
	// captures still report the true payload size.
	PayloadLen int

	// WireLen is the frame length implied by the headers (Ethernet + IP
	// TotalLen when present, otherwise the capture length).
	WireLen int
}

// Has reports whether every layer in mask was decoded.
func (d *Decoded) Has(mask LayerMask) bool { return d.Layers&mask == mask }

// DecodeTCPFast decodes the dominant frame shape — untagged Ethernet II,
// IPv4 with no options, TCP with a 20-byte header — in one flat pass
// with no per-layer calls. It returns false without touching d for any
// other shape (VLAN, ARP, IP options, TCP options, UDP, truncation,
// malformed lengths); the caller then runs the full Decode, which
// reproduces the exact result or error. On true, d is bit-identical to
// what Decode would have produced — a property the decode fuzz target
// pins — so callers can treat the pair as one decoder with a fast lane.
func (d *Decoded) DecodeTCPFast(b []byte) bool {
	const fastLen = EthernetHeaderLen + IPv4MinHeaderLen + TCPMinHeaderLen
	if len(b) < fastLen ||
		b[12] != 0x08 || b[13] != 0x00 || // EtherTypeIPv4
		b[14] != 0x45 || // IPv4, IHL 5 words: options go the slow way
		b[23] != uint8(IPProtocolTCP) ||
		b[46]>>4 != 5 { // TCP options go the slow way
		return false
	}
	totalLen := binary.BigEndian.Uint16(b[16:18])
	ipPayload := int(totalLen) - IPv4MinHeaderLen
	if ipPayload < TCPMinHeaderLen {
		return false // lying TotalLen: the slow path produces the error
	}

	d.Layers = LayerEthernet | LayerIPv4 | LayerTCP
	copy(d.Eth.Dst[:], b[0:6])
	copy(d.Eth.Src[:], b[6:12])
	d.Eth.Type = EtherTypeIPv4

	d.IP.TOS = b[15]
	d.IP.TotalLen = totalLen
	d.IP.ID = binary.BigEndian.Uint16(b[18:20])
	ff := binary.BigEndian.Uint16(b[20:22])
	d.IP.Flags = uint8(ff >> 13)
	d.IP.FragOff = ff & 0x1fff
	d.IP.TTL = b[22]
	d.IP.Protocol = IPProtocolTCP
	d.IP.Checksum = binary.BigEndian.Uint16(b[24:26])
	copy(d.IP.Src[:], b[26:30])
	copy(d.IP.Dst[:], b[30:34])
	d.IP.hdrLen = IPv4MinHeaderLen

	d.TCP.SrcPort = binary.BigEndian.Uint16(b[34:36])
	d.TCP.DstPort = binary.BigEndian.Uint16(b[36:38])
	d.TCP.Seq = binary.BigEndian.Uint32(b[38:42])
	d.TCP.Ack = binary.BigEndian.Uint32(b[42:46])
	d.TCP.Flags = b[47] & 0x3f
	d.TCP.Window = binary.BigEndian.Uint16(b[48:50])
	d.TCP.Checksum = binary.BigEndian.Uint16(b[50:52])

	d.PayloadLen = ipPayload - TCPMinHeaderLen
	d.WireLen = EthernetHeaderLen + int(totalLen)
	return true
}

// Decode parses an Ethernet frame. On error the mask reflects the layers
// decoded so far, letting callers keep partial information.
func (d *Decoded) Decode(b []byte) error {
	d.Layers = 0
	d.PayloadLen = 0
	d.WireLen = len(b)

	n, err := d.Eth.decode(b)
	if err != nil {
		return err
	}
	d.Layers |= LayerEthernet
	rest := b[n:]

	switch d.Eth.Type {
	case EtherTypeARP:
		if _, err := d.ARP.decode(rest); err != nil {
			return err
		}
		d.Layers |= LayerARP
		return nil
	case EtherTypeIPv4:
		return d.decodeIPv4(rest)
	default:
		return fmt.Errorf("ethertype %#04x: %w", uint16(d.Eth.Type), ErrUnsupported)
	}
}

func (d *Decoded) decodeIPv4(b []byte) error {
	n, err := d.IP.decode(b)
	if err != nil {
		return err
	}
	d.Layers |= LayerIPv4
	ipPayload := int(d.IP.TotalLen) - n
	if ipPayload < 0 {
		return fmt.Errorf("ipv4 total length %d < header %d: %w", d.IP.TotalLen, n, ErrBadHdrLen)
	}
	d.WireLen = EthernetHeaderLen + int(d.IP.TotalLen)
	rest := b[n:]

	switch d.IP.Protocol {
	case IPProtocolTCP:
		hn, err := d.TCP.decode(rest)
		if err != nil {
			return err
		}
		if hn > ipPayload {
			// The IP TotalLen claims less data than the transport header
			// occupies — a lying header, not a truncated capture.
			return fmt.Errorf("ipv4 total length %d < headers %d: %w", d.IP.TotalLen, n+hn, ErrBadHdrLen)
		}
		d.Layers |= LayerTCP
		d.PayloadLen = ipPayload - hn
		return nil
	case IPProtocolUDP:
		hn, err := d.UDP.decode(rest)
		if err != nil {
			return err
		}
		if hn > ipPayload {
			return fmt.Errorf("ipv4 total length %d < headers %d: %w", d.IP.TotalLen, n+hn, ErrBadHdrLen)
		}
		d.Layers |= LayerUDP
		d.PayloadLen = ipPayload - hn
		return nil
	default:
		d.PayloadLen = ipPayload
		return fmt.Errorf("ip protocol %d: %w", uint8(d.IP.Protocol), ErrUnsupported)
	}
}

// FlowKey is a compact 5-tuple key identifying a transport flow. It is
// comparable and therefore usable directly as a map key.
//
// The blank tail pads the struct from 13 to 16 bytes. Without it the
// compiler copies the 14-byte (aligned) value as a pair of overlapping
// 8-byte stores, and any word-wide read of a just-copied key — the flow
// hash, the table probe's key compare — then spans both stores and
// stalls on a store-forwarding miss (~15 cycles, measured). At 16 bytes
// every copy is two disjoint word stores and the hot-path loads forward
// cleanly. The padding is excluded from == (blank fields are not
// compared) and never read by the hash.
type FlowKey struct {
	SrcIP   IPv4
	DstIP   IPv4
	SrcPort uint16
	DstPort uint16
	Proto   IPProtocol
	_       [3]byte
}

// String renders the key as "proto src:port>dst:port".
func (k FlowKey) String() string {
	proto := "ip"
	switch k.Proto {
	case IPProtocolTCP:
		proto = "tcp"
	case IPProtocolUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%s %s:%d>%s:%d", proto, k.SrcIP, k.SrcPort, k.DstIP, k.DstPort)
}

// Flow extracts the 5-tuple of a decoded TCP or UDP packet. ok is false
// when the frame has no transport layer.
func (d *Decoded) Flow() (k FlowKey, ok bool) {
	switch {
	case d.Layers&LayerTCP != 0:
		k.SrcPort, k.DstPort = d.TCP.SrcPort, d.TCP.DstPort
	case d.Layers&LayerUDP != 0:
		k.SrcPort, k.DstPort = d.UDP.SrcPort, d.UDP.DstPort
	default:
		return k, false
	}
	k.SrcIP, k.DstIP, k.Proto = d.IP.Src, d.IP.Dst, d.IP.Protocol
	return k, true
}
