// Package packet implements a from-scratch, allocation-conscious codec for
// the wire formats Planck needs to parse at line rate: Ethernet II, ARP,
// IPv4, TCP, and UDP. The design follows gopacket's layering model —
// each protocol is a Layer with Decode and Serialize — but is trimmed to
// the exact feature set the collector requires and uses no third-party
// code.
//
// The hot path is Decoded.Decode, which parses an entire frame into a
// caller-owned Decoded struct without allocating, so a collector can parse
// millions of frames per second without GC pressure.
package packet

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is the all-ones broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// U64 packs the address into the low 48 bits of a uint64, useful as a
// compact map key.
func (m MAC) U64() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// IPv4 is a 32-bit IPv4 address.
type IPv4 [4]byte

// String renders the address in dotted-quad form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// U32 packs the address into a uint32 (network byte order semantics).
func (ip IPv4) U32() uint32 { return binary.BigEndian.Uint32(ip[:]) }
