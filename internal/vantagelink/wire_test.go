package vantagelink

import (
	"testing"

	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/units"
)

func testReport(i int) core.FlowReport {
	return core.FlowReport{
		Time: units.Time(1_000_000 + i*137),
		Key: packet.FlowKey{
			SrcIP: packet.IPv4{10, 0, byte(i), 1}, DstIP: packet.IPv4{10, 0, 8, byte(i)},
			SrcPort: uint16(1000 + i), DstPort: 5001,
			Proto: packet.IPProtocolTCP,
		},
		DstMAC:      packet.MAC{2, 0, 0, 0, 0, byte(i)},
		OutPort:     i % 5,
		Epoch:       uint64(7 + i),
		Rate:        units.Rate(1_500_000 * (i + 1)),
		RateOK:      i%2 == 0,
		RateUpdated: i%3 == 0,
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	h := Header{Type: FrameData, Vantage: 42, Seq: 987654, Time: units.Time(5 * units.Millisecond)}
	frame := AppendHeader(nil, h)
	want := make([]core.FlowReport, 5)
	for i := range want {
		want[i] = testReport(i)
		frame = AppendRecord(frame, &want[i])
	}
	FinishFrame(frame)

	got, payload, err := ParseFrame(frame)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if got != h {
		t.Fatalf("header round trip: got %+v want %+v", got, h)
	}
	if len(payload) != len(want)*RecordLen {
		t.Fatalf("payload length %d, want %d", len(payload), len(want)*RecordLen)
	}
	var rep core.FlowReport
	for i := range want {
		DecodeRecord(payload[i*RecordLen:], &rep)
		if rep != want[i] {
			t.Fatalf("record %d round trip: got %+v want %+v", i, rep, want[i])
		}
	}
}

func TestRecordRoundTripEdgeCases(t *testing.T) {
	cases := []core.FlowReport{
		{},                   // zero value
		{OutPort: -1},        // unknown egress
		{Time: -1, Rate: -1}, // negative stamps survive
		{Epoch: 1<<64 - 1, RateOK: true, RateUpdated: true},
	}
	for i, want := range cases {
		b := AppendRecord(nil, &want)
		if len(b) != RecordLen {
			t.Fatalf("case %d: encoded %d bytes, want %d", i, len(b), RecordLen)
		}
		got := testReport(9) // pre-dirtied: Decode must overwrite every field
		DecodeRecord(b, &got)
		if got != want {
			t.Fatalf("case %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	// Nack with two ranges.
	frame := AppendHeader(nil, Header{Type: FrameNack, Vantage: 3, Seq: 0, Time: 77})
	frame = AppendNackRange(frame, 10, 15)
	frame = AppendNackRange(frame, 40, 41)
	FinishFrame(frame)
	h, payload, err := ParseFrame(frame)
	if err != nil || h.Type != FrameNack {
		t.Fatalf("nack parse: %v %+v", err, h)
	}
	if from, to := DecodeNackRange(payload, 0); from != 10 || to != 15 {
		t.Fatalf("nack range 0: [%d,%d)", from, to)
	}
	if from, to := DecodeNackRange(payload, 1); from != 40 || to != 41 {
		t.Fatalf("nack range 1: [%d,%d)", from, to)
	}

	// Sync.
	frame = AppendHeader(frame[:0], Header{Type: FrameSync, Vantage: 3, Time: 5})
	frame = AppendSync(frame, 100, 200, 201)
	FinishFrame(frame)
	if _, payload, err = ParseFrame(frame); err != nil {
		t.Fatalf("sync parse: %v", err)
	}
	if t1, t2, t3 := DecodeSync(payload); t1 != 100 || t2 != 200 || t3 != 201 {
		t.Fatalf("sync round trip: %d %d %d", t1, t2, t3)
	}

	// Heartbeat, both flag values plus the ring-trail edge values.
	for _, synced := range []bool{false, true} {
		for _, trail := range []uint64{1, 512, 1<<64 - 1} {
			frame = AppendHeader(frame[:0], Header{Type: FrameHeartbeat, Vantage: 1, Seq: 9, Time: 1})
			frame = AppendHeartbeat(frame, synced, trail)
			FinishFrame(frame)
			if _, payload, err = ParseFrame(frame); err != nil {
				t.Fatalf("heartbeat parse: %v", err)
			}
			gotSynced, gotTrail := DecodeHeartbeat(payload)
			if gotSynced != synced || gotTrail != trail {
				t.Fatalf("heartbeat round trip: got %v/%d want %v/%d", gotSynced, gotTrail, synced, trail)
			}
		}
	}

	// Rejoin.
	frame = AppendHeader(frame[:0], Header{Type: FrameRejoin, Vantage: 1, Seq: 10, Time: 2})
	frame = AppendRejoin(frame, 12345)
	FinishFrame(frame)
	if _, payload, err = ParseFrame(frame); err != nil {
		t.Fatalf("rejoin parse: %v", err)
	}
	if gen := DecodeRejoin(payload); gen != 12345 {
		t.Fatalf("rejoin gen: %d", gen)
	}
}

// TestChecksumCatchesEveryByteFlip flips every bit position of a valid
// frame one byte at a time and asserts ParseFrame rejects all of them:
// corruption anywhere degrades to loss, never to a bad record.
func TestChecksumCatchesEveryByteFlip(t *testing.T) {
	frame := AppendHeader(nil, Header{Type: FrameData, Vantage: 7, Seq: 55, Time: 1234})
	rep := testReport(0)
	frame = AppendRecord(frame, &rep)
	FinishFrame(frame)
	if _, _, err := ParseFrame(frame); err != nil {
		t.Fatalf("pristine frame must parse: %v", err)
	}
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			frame[i] ^= 1 << uint(bit)
			if _, _, err := ParseFrame(frame); err == nil {
				t.Fatalf("flip byte %d bit %d went undetected", i, bit)
			}
			frame[i] ^= 1 << uint(bit)
		}
	}
}

func TestParseFrameRejectsMalformed(t *testing.T) {
	valid := AppendHeader(nil, Header{Type: FrameHeartbeat, Vantage: 1, Seq: 1, Time: 1})
	valid = AppendHeartbeat(valid, true, 1)
	FinishFrame(valid)

	bad := func(name string, frame []byte) {
		if _, _, err := ParseFrame(frame); err == nil {
			t.Fatalf("%s: expected parse error", name)
		}
	}
	bad("short", valid[:HeaderLen-1])
	bad("empty", nil)

	// Unknown type with a recomputed (valid) checksum.
	f := append([]byte(nil), valid...)
	f[5] = 99
	FinishFrame(f)
	bad("unknown type", f)

	// Data payload not a multiple of RecordLen.
	f = AppendHeader(f[:0], Header{Type: FrameData, Vantage: 1, Seq: 2, Time: 1})
	f = append(f, make([]byte, RecordLen-1)...)
	FinishFrame(f)
	bad("ragged data payload", f)

	// Nack with an empty payload.
	f = AppendHeader(f[:0], Header{Type: FrameNack, Vantage: 1, Time: 1})
	FinishFrame(f)
	bad("empty nack", f)
}

// TestAppendRecordDoesNotAllocate counts each codec direction over one
// run of 200 calls, so that a single allocation counts: AllocsPerRun
// rounds its mean down.
func TestAppendRecordDoesNotAllocate(t *testing.T) {
	rep := testReport(1)
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			buf = AppendRecord(buf[:0], &rep)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendRecord allocates %.0f times in 200 calls; the per-sample encode path must be allocation-free", allocs)
	}
	var out core.FlowReport
	allocs = testing.AllocsPerRun(1, func() {
		for range 200 {
			DecodeRecord(buf, &out)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeRecord allocates %.0f times in 200 calls", allocs)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the full decode surface:
// ParseFrame, every payload decoder, the receiver's datagram entry
// point, and the sender's control entry point. Nothing may panic, and
// anything ParseFrame accepts must decode cleanly.
func FuzzDecodeFrame(f *testing.F) {
	seed := AppendHeader(nil, Header{Type: FrameData, Vantage: 1, Seq: 1, Time: 99})
	rep := testReport(0)
	seed = AppendRecord(seed, &rep)
	FinishFrame(seed)
	f.Add(append([]byte(nil), seed...))
	hb := AppendHeader(nil, Header{Type: FrameHeartbeat, Vantage: 1, Seq: 2, Time: 100})
	hb = AppendHeartbeat(hb, true, 1)
	FinishFrame(hb)
	f.Add(append([]byte(nil), hb...))
	nack := AppendHeader(nil, Header{Type: FrameNack, Vantage: 1, Time: 5})
	nack = AppendNackRange(nack, 3, 9)
	FinishFrame(nack)
	f.Add(append([]byte(nil), nack...))
	f.Add(seed[:HeaderLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := ParseFrame(data)
		if err == nil {
			var rep core.FlowReport
			switch h.Type {
			case FrameData:
				for i := 0; i+RecordLen <= len(payload); i += RecordLen {
					DecodeRecord(payload[i:], &rep)
				}
			case FrameNack:
				for i := 0; i < len(payload)/NackRangeLen; i++ {
					DecodeNackRange(payload, i)
				}
			case FrameSync:
				DecodeSync(payload)
			case FrameHeartbeat:
				DecodeHeartbeat(payload)
			case FrameRejoin:
				DecodeRejoin(payload)
			}
		}
		// The endpoint entry points must shrug off anything.
		r := NewReceiver(ReceiverConfig{})
		r.Join(1, nullSink{}, ChannelFunc(func(units.Time, []byte) error { return nil }))
		r.HandleDatagram(units.Time(units.Millisecond), data)
		r.Tick(units.Time(2 * units.Millisecond))
		s := NewSender(ChannelFunc(func(units.Time, []byte) error { return nil }),
			SenderConfig{Vantage: 1})
		s.HandleControl(units.Time(units.Millisecond), data)
	})
}

type nullSink struct{}

func (nullSink) Report(*core.FlowReport) {}
func (nullSink) Live(units.Time)         {}
func (nullSink) Rejoin(uint32)           {}
