package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes Planck understands.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
)

// IPProtocol identifies the payload protocol of an IPv4 packet.
type IPProtocol uint8

// IP protocol numbers Planck understands.
const (
	IPProtocolTCP IPProtocol = 6
	IPProtocolUDP IPProtocol = 17
)

// Header lengths in bytes (no options / no VLAN tags, which is how the
// simulated hosts emit traffic; the decoder still honours the IPv4 IHL and
// TCP data-offset fields for externally captured traffic).
const (
	EthernetHeaderLen = 14
	ARPBodyLen        = 28
	IPv4MinHeaderLen  = 20
	TCPMinHeaderLen   = 20
	UDPHeaderLen      = 8
)

// Errors returned by the decoders.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadVersion  = errors.New("packet: bad IP version")
	ErrBadHdrLen   = errors.New("packet: bad header length")
	ErrUnsupported = errors.New("packet: unsupported protocol")
)

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst  MAC
	Src  MAC
	Type EtherType
}

func (e *Ethernet) decode(b []byte) (int, error) {
	if len(b) < EthernetHeaderLen {
		return 0, fmt.Errorf("ethernet %d bytes: %w", len(b), ErrTruncated)
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.Type = EtherType(binary.BigEndian.Uint16(b[12:14]))
	return EthernetHeaderLen, nil
}

func (e *Ethernet) serialize(b []byte) int {
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[12:14], uint16(e.Type))
	return EthernetHeaderLen
}

// ARPOp distinguishes ARP requests from replies.
type ARPOp uint16

// ARP operations.
const (
	ARPRequest ARPOp = 1
	ARPReply   ARPOp = 2
)

// ARP is an Ethernet/IPv4 ARP body. Planck's controller uses unicast ARP
// requests carrying shadow MAC addresses to repoint host ARP caches, so the
// codec supports both directions.
type ARP struct {
	Op        ARPOp
	SenderMAC MAC
	SenderIP  IPv4
	TargetMAC MAC
	TargetIP  IPv4
}

func (a *ARP) decode(b []byte) (int, error) {
	if len(b) < ARPBodyLen {
		return 0, fmt.Errorf("arp %d bytes: %w", len(b), ErrTruncated)
	}
	htype := binary.BigEndian.Uint16(b[0:2])
	ptype := binary.BigEndian.Uint16(b[2:4])
	if htype != 1 || EtherType(ptype) != EtherTypeIPv4 || b[4] != 6 || b[5] != 4 {
		return 0, fmt.Errorf("arp htype=%d ptype=%#x hlen=%d plen=%d: %w", htype, ptype, b[4], b[5], ErrUnsupported)
	}
	a.Op = ARPOp(binary.BigEndian.Uint16(b[6:8]))
	copy(a.SenderMAC[:], b[8:14])
	copy(a.SenderIP[:], b[14:18])
	copy(a.TargetMAC[:], b[18:24])
	copy(a.TargetIP[:], b[24:28])
	return ARPBodyLen, nil
}

func (a *ARP) serialize(b []byte) int {
	binary.BigEndian.PutUint16(b[0:2], 1) // Ethernet
	binary.BigEndian.PutUint16(b[2:4], uint16(EtherTypeIPv4))
	b[4] = 6
	b[5] = 4
	binary.BigEndian.PutUint16(b[6:8], uint16(a.Op))
	copy(b[8:14], a.SenderMAC[:])
	copy(b[14:18], a.SenderIP[:])
	copy(b[18:24], a.TargetMAC[:])
	copy(b[24:28], a.TargetIP[:])
	return ARPBodyLen
}

// IPv4Header is an IPv4 header (options preserved on decode, never emitted
// on serialize).
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol IPProtocol
	Checksum uint16 // as seen on the wire (decode) / computed (serialize)
	Src      IPv4
	Dst      IPv4
	hdrLen   int
}

// HeaderLen returns the decoded header length in bytes.
func (h *IPv4Header) HeaderLen() int {
	if h.hdrLen == 0 {
		return IPv4MinHeaderLen
	}
	return h.hdrLen
}

func (h *IPv4Header) decode(b []byte) (int, error) {
	if len(b) < IPv4MinHeaderLen {
		return 0, fmt.Errorf("ipv4 %d bytes: %w", len(b), ErrTruncated)
	}
	if v := b[0] >> 4; v != 4 {
		return 0, fmt.Errorf("ipv4 version %d: %w", v, ErrBadVersion)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4MinHeaderLen || ihl > len(b) {
		return 0, fmt.Errorf("ipv4 ihl %d of %d: %w", ihl, len(b), ErrBadHdrLen)
	}
	h.hdrLen = ihl
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = IPProtocol(b[9])
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return ihl, nil
}

// serialize writes a 20-byte header with a freshly computed checksum.
// TotalLen must already be set by the caller.
func (h *IPv4Header) serialize(b []byte) int {
	b[0] = 4<<4 | 5 // version 4, IHL 5 words
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = uint8(h.Protocol)
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	h.Checksum = Checksum(b[:IPv4MinHeaderLen])
	binary.BigEndian.PutUint16(b[10:12], h.Checksum)
	return IPv4MinHeaderLen
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
	TCPUrg uint8 = 1 << 5
)

// TCPHeader is a TCP header (options skipped on decode, never emitted
// on serialize).
type TCPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
}

func (t *TCPHeader) decode(b []byte) (int, error) {
	if len(b) < TCPMinHeaderLen {
		return 0, fmt.Errorf("tcp %d bytes: %w", len(b), ErrTruncated)
	}
	off := int(b[12]>>4) * 4
	if off < TCPMinHeaderLen || off > len(b) {
		return 0, fmt.Errorf("tcp data offset %d of %d: %w", off, len(b), ErrBadHdrLen)
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.Flags = b[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	return off, nil
}

func (t *TCPHeader) serialize(b []byte) int {
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = 5 << 4 // 20-byte header
	b[13] = t.Flags & 0x3f
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	b[16], b[17] = 0, 0                     // checksum, filled by caller
	binary.BigEndian.PutUint16(b[18:20], 0) // urgent pointer
	return TCPMinHeaderLen
}

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

func (u *UDPHeader) decode(b []byte) (int, error) {
	if len(b) < UDPHeaderLen {
		return 0, fmt.Errorf("udp %d bytes: %w", len(b), ErrTruncated)
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	return UDPHeaderLen, nil
}

func (u *UDPHeader) serialize(b []byte) int {
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], u.Length)
	b[6], b[7] = 0, 0 // checksum, filled by caller
	return UDPHeaderLen
}

// Checksum computes the RFC 1071 internet checksum over b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum returns the partial sum of the IPv4 pseudo-header used by
// TCP and UDP checksums.
func pseudoHeaderSum(src, dst IPv4, proto IPProtocol, l4len int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(l4len)
	return sum
}

// L4Checksum computes a TCP or UDP checksum: pseudo-header plus segment.
func L4Checksum(src, dst IPv4, proto IPProtocol, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	b := segment
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}
