package planck

import (
	"bytes"
	"testing"

	packetpkg "planck/internal/packet"
	"planck/internal/units"
)

func TestFacadeSingleSwitch(t *testing.T) {
	tb, err := NewSingleSwitchTestbed(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tb.Hosts[0].StartFlow(0, HostIP(1), 5001, 4<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(200 * units.Millisecond)
	if !conn.Completed {
		t.Fatal("flow incomplete")
	}
	if _, ok := tb.Collector(0).FlowRate(conn.FlowKey()); !ok {
		t.Fatal("flow not observed")
	}
}

func TestFacadeFatTreeWithTE(t *testing.T) {
	tb, err := NewFatTreeTestbed(5)
	if err != nil {
		t.Fatal(err)
	}
	te := AttachPlanckTE(tb)
	if te == nil {
		t.Fatal("nil TE")
	}
	if _, err := tb.Hosts[0].StartFlow(0, HostIP(8), 5001, 2<<20, 1); err != nil {
		t.Fatal(err)
	}
	tb.Run(100 * units.Millisecond)
}

func TestFacadePcapRoundTrip(t *testing.T) {
	tb, err := NewTestbedWithRing(4, 5, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Hosts[0].StartFlow(0, HostIP(1), 5001, 1<<20, 1); err != nil {
		t.Fatal(err)
	}
	tb.Run(100 * units.Millisecond)

	var buf bytes.Buffer
	if err := tb.Collector(0).DumpPcap(&buf); err != nil {
		t.Fatal(err)
	}
	col := NewCollector(CollectorConfig{SwitchName: "replay", LinkRate: 10 * Gbps})
	n, err := ReplayPcap(&buf, col)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing replayed")
	}
	st := col.Stats()
	if st.Flows == 0 || st.Samples != int64(n) {
		t.Fatalf("stats %+v after %d frames", st, n)
	}
}

func TestFacadeEstimator(t *testing.T) {
	e := NewRateEstimator()
	var tm Time
	var seq uint32
	for i := 0; i < 2000; i++ {
		e.Observe(tm, seq)
		seq += 1460
		tm = tm.Add(Duration(1230))
	}
	r, _, ok := e.Rate()
	if !ok || r.Gigabits() < 9 {
		t.Fatalf("rate %v ok=%v", r, ok)
	}
}

// TestFacadeFaultWrap: the fault layer is reachable from the facade —
// a spec parses, wraps any Ingester, and deterministically injects.
func TestFacadeFaultWrap(t *testing.T) {
	sched, err := ParseFaultSpec("loss")
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(CollectorConfig{SwitchName: "faulty", LinkRate: 10 * Gbps})
	fi := WrapFaults(col, sched, 1)
	frame := packetpkg.BuildTCP(nil, packetpkg.TCPSpec{
		SrcMAC: packetpkg.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packetpkg.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: packetpkg.IPv4{10, 0, 0, 1}, DstIP: packetpkg.IPv4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, Seq: 0, Flags: packetpkg.TCPAck, PayloadLen: 100,
	})
	for i := 0; i < 50; i++ {
		if err := fi.Ingest(Time(i)*1000, frame); err != nil {
			t.Fatal(err)
		}
	}
	if got := col.Stats().Samples; got != 0 {
		t.Fatalf("total loss let %d samples through", got)
	}
	if got := fi.Injector().Metrics().Lost.Value(); got != 50 {
		t.Fatalf("Lost = %d, want 50", got)
	}

	if _, err := ParseFaultSpec("crash"); err == nil {
		t.Fatal("crash without @time accepted")
	}
}

// TestFacadeFaultWrapReleasesHeldFrame: a reorder rule holds a frame
// back until its successor, but a hold must not outlive the IngestBatch
// call that took it, so a one-frame batch still reaches the collector —
// in order, so it does not count as reordered.
func TestFacadeFaultWrapReleasesHeldFrame(t *testing.T) {
	sched, err := ParseFaultSpec("reorder:1")
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(CollectorConfig{SwitchName: "faulty", LinkRate: 10 * Gbps})
	fi := WrapFaults(col, sched, 1)
	frame := packetpkg.BuildTCP(nil, packetpkg.TCPSpec{
		SrcMAC: packetpkg.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packetpkg.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: packetpkg.IPv4{10, 0, 0, 1}, DstIP: packetpkg.IPv4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, Seq: 0, Flags: packetpkg.TCPAck, PayloadLen: 100,
	})
	if err := fi.IngestBatch([]Time{1000}, [][]byte{frame}); err != nil {
		t.Fatal(err)
	}
	if got := fi.Injector().Metrics().Reordered.Value(); got != 0 {
		t.Fatalf("reordered counter = %d for a frame released in order at the batch's end, want 0", got)
	}
	if got := col.Stats().Samples; got != 1 {
		t.Fatalf("collector ingested %d samples of a one-frame batch, want 1: the held frame was lost", got)
	}
}

func TestSampleEncoding(t *testing.T) {
	frame := []byte{1, 2, 3, 4, 5}
	d := EncodeSample(nil, Time(123456789), frame)
	tm, got, err := DecodeSample(d)
	if err != nil || tm != 123456789 || !bytes.Equal(got, frame) {
		t.Fatalf("roundtrip: %v %v %v", tm, got, err)
	}
	if _, _, err := DecodeSample([]byte{1, 2}); err == nil {
		t.Fatal("short datagram accepted")
	}
}
