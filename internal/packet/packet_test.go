package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x02, 0, 0, 0, 0, 1}
	macB = MAC{0x02, 0, 0, 0, 0, 2}
	ipA  = IPv4{10, 0, 0, 1}
	ipB  = IPv4{10, 0, 0, 2}
)

func TestMACRoundTrip(t *testing.T) {
	f := func(a, b, c, d, e, g byte) bool {
		m := MAC{a, b, c, d, e, g}
		v := m.U64()
		return v>>48 == 0 && MAC{byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)} == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		var ip IPv4
		binary.BigEndian.PutUint32(ip[:], v)
		return ip.U32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMACString(t *testing.T) {
	if got := macA.String(); got != "02:00:00:00:00:01" {
		t.Fatalf("MAC string %q", got)
	}
	if got := ipA.String(); got != "10.0.0.1" {
		t.Fatalf("IP string %q", got)
	}
}

func TestBuildDecodeTCP(t *testing.T) {
	frame := BuildTCP(nil, TCPSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ipA, DstIP: ipB,
		SrcPort: 10000, DstPort: 5001,
		Seq: 123456789, Ack: 987654321,
		Flags: TCPAck | TCPPsh, Window: 4096,
		PayloadLen: 1460,
	})
	if len(frame) != EthernetHeaderLen+IPv4MinHeaderLen+TCPMinHeaderLen+1460 {
		t.Fatalf("frame length %d", len(frame))
	}
	var d Decoded
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if !d.Has(LayerEthernet | LayerIPv4 | LayerTCP) {
		t.Fatalf("layers %b", d.Layers)
	}
	if d.Eth.Src != macA || d.Eth.Dst != macB || d.Eth.Type != EtherTypeIPv4 {
		t.Fatalf("eth %+v", d.Eth)
	}
	if d.IP.Src != ipA || d.IP.Dst != ipB || d.IP.Protocol != IPProtocolTCP {
		t.Fatalf("ip %+v", d.IP)
	}
	if d.TCP.Seq != 123456789 || d.TCP.Ack != 987654321 || d.TCP.Flags != TCPAck|TCPPsh {
		t.Fatalf("tcp %+v", d.TCP)
	}
	if d.TCP.SrcPort != 10000 || d.TCP.DstPort != 5001 || d.TCP.Window != 4096 {
		t.Fatalf("tcp ports %+v", d.TCP)
	}
	if d.PayloadLen != 1460 || d.WireLen != len(frame) {
		t.Fatalf("payload %d wire %d", d.PayloadLen, d.WireLen)
	}
	k, ok := d.Flow()
	if !ok || k.SrcIP != ipA || k.DstPort != 5001 || k.Proto != IPProtocolTCP {
		t.Fatalf("flow %+v ok=%v", k, ok)
	}
}

func TestBuildDecodeUDP(t *testing.T) {
	frame := BuildUDP(nil, UDPSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ipA, DstIP: ipB,
		SrcPort: 9999, DstPort: 53,
		PayloadLen: 512,
	})
	var d Decoded
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if !d.Has(LayerUDP) || d.UDP.Length != UDPHeaderLen+512 || d.PayloadLen != 512 {
		t.Fatalf("udp %+v payload %d", d.UDP, d.PayloadLen)
	}
}

func TestBuildDecodeARP(t *testing.T) {
	frame := BuildARP(nil, ARPSpec{
		SrcMAC: macA, DstMAC: macB,
		Op:        ARPRequest,
		SenderMAC: macA, SenderIP: ipA,
		TargetMAC: MAC{}, TargetIP: ipB,
	})
	var d Decoded
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if !d.Has(LayerARP) || d.ARP.Op != ARPRequest || d.ARP.SenderIP != ipA || d.ARP.TargetIP != ipB {
		t.Fatalf("arp %+v", d.ARP)
	}
	if _, ok := d.Flow(); ok {
		t.Fatal("ARP should have no transport flow")
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	frame := BuildTCP(nil, TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, PayloadLen: 10})
	ipHdr := frame[EthernetHeaderLen : EthernetHeaderLen+IPv4MinHeaderLen]
	if Checksum(ipHdr) != 0 {
		t.Fatal("IPv4 header checksum does not verify")
	}
}

func TestTCPChecksumValid(t *testing.T) {
	frame := BuildTCP(nil, TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, Seq: 7, PayloadLen: 33})
	seg := frame[EthernetHeaderLen+IPv4MinHeaderLen:]
	if L4Checksum(ipA, ipB, IPProtocolTCP, seg) != 0 {
		t.Fatal("TCP checksum does not verify")
	}
}

func TestUDPChecksumValid(t *testing.T) {
	frame := BuildUDP(nil, UDPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, PayloadLen: 99})
	seg := frame[EthernetHeaderLen+IPv4MinHeaderLen:]
	// Sum over segment with transmitted checksum must verify (0 or the
	// 0xffff representation case).
	ck := L4Checksum(ipA, ipB, IPProtocolUDP, seg)
	if ck != 0 && ck != 0xffff {
		t.Fatalf("UDP checksum does not verify: %#x", ck)
	}
}

func TestDecodeTruncated(t *testing.T) {
	frame := BuildTCP(nil, TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, PayloadLen: 100})
	var d Decoded
	for _, n := range []int{0, 5, EthernetHeaderLen - 1, EthernetHeaderLen + 3, EthernetHeaderLen + IPv4MinHeaderLen + 5} {
		if err := d.Decode(frame[:n]); err == nil {
			t.Errorf("no error decoding %d-byte prefix", n)
		}
	}
}

// Property: build->decode round-trips TCP header fields for arbitrary
// values.
func TestTCPRoundTripProperty(t *testing.T) {
	f := func(seq, ack uint32, sp, dp uint16, payload uint16, flags uint8) bool {
		pl := int(payload) % 1461
		frame := BuildTCP(nil, TCPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags & 0x3f, PayloadLen: pl,
		})
		var d Decoded
		if err := d.Decode(frame); err != nil {
			return false
		}
		return d.TCP.Seq == seq && d.TCP.Ack == ack &&
			d.TCP.SrcPort == sp && d.TCP.DstPort == dp &&
			d.TCP.Flags == flags&0x3f && d.PayloadLen == pl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildReusesBuffer(t *testing.T) {
	buf := make([]byte, 2000)
	frame := BuildTCP(buf, TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, PayloadLen: 100})
	if &frame[0] != &buf[0] {
		t.Fatal("BuildTCP did not reuse the provided buffer")
	}
	small := make([]byte, 10)
	frame2 := BuildTCP(small, TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, PayloadLen: 100})
	if len(frame2) != len(frame) || bytes.Equal(frame2[:10], small) && cap(frame2) == cap(small) {
		t.Fatal("BuildTCP did not grow a too-small buffer")
	}
}

// TestFlowKeyReverse: the two directions of one connection decode to
// mirrored keys, each rendering source first.
func TestFlowKeyReverse(t *testing.T) {
	flow := func(srcIP, dstIP IPv4, srcPort, dstPort uint16) FlowKey {
		var d Decoded
		if err := d.Decode(BuildTCP(nil, TCPSpec{SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort})); err != nil {
			t.Fatal(err)
		}
		k, ok := d.Flow()
		if !ok {
			t.Fatal("no flow key")
		}
		return k
	}
	k, r := flow(ipA, ipB, 1, 2), flow(ipB, ipA, 2, 1)
	if r != (FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}) {
		t.Fatalf("reverse %+v of %+v", r, k)
	}
	if r.String() != "tcp 10.0.0.2:2>10.0.0.1:1" {
		t.Fatalf("string %q", r.String())
	}
	if k.String() != "tcp 10.0.0.1:1>10.0.0.2:2" {
		t.Fatalf("string %q", k.String())
	}
}
