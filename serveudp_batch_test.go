package planck

import (
	"net"
	"runtime"
	"testing"
	"time"

	packetpkg "planck/internal/packet"
)

// memPacketConn is an in-memory PacketConn serving pre-built datagrams
// in order, with a zero-allocation read path — the harness for proving
// the batched serve loop's steady state allocates nothing per datagram.
type memPacketConn struct {
	dgrams   [][]byte
	next     int
	deadline time.Time
}

type memTimeoutError struct{}

func (memTimeoutError) Error() string   { return "mem conn: timeout" }
func (memTimeoutError) Timeout() bool   { return true }
func (memTimeoutError) Temporary() bool { return true }

var errMemTimeout net.Error = memTimeoutError{}

func (c *memPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if c.next >= len(c.dgrams) {
		return 0, nil, errMemTimeout
	}
	n := copy(p, c.dgrams[c.next])
	c.next++
	return n, nil, nil
}

func (c *memPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) { return len(p), nil }
func (c *memPacketConn) Close() error                                 { return nil }
func (c *memPacketConn) LocalAddr() net.Addr                          { return nil }
func (c *memPacketConn) SetDeadline(t time.Time) error                { c.deadline = t; return nil }
func (c *memPacketConn) SetReadDeadline(t time.Time) error            { c.deadline = t; return nil }
func (c *memPacketConn) SetWriteDeadline(t time.Time) error           { return nil }

func sampleDgram(tm Time, seq uint32) []byte {
	frame := packetpkg.BuildTCP(nil, packetpkg.TCPSpec{
		SrcMAC: packetpkg.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packetpkg.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: packetpkg.IPv4{10, 0, 0, 1}, DstIP: packetpkg.IPv4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, Seq: seq, Flags: packetpkg.TCPAck, PayloadLen: 100,
	})
	return EncodeSample(nil, tm, frame)
}

// TestServeUDPBatchedSteadyStateAllocs runs 4096 datagrams through the
// batched serve loop over the in-memory conn and demands the total
// allocation count stays at setup scale: the buffer ring, the batch
// slices, and the collector's first flow record — nothing per datagram.
func TestServeUDPBatchedSteadyStateAllocs(t *testing.T) {
	const total = 4096
	dgrams := make([][]byte, total)
	var tm Time
	var seq uint32
	for i := range dgrams {
		dgrams[i] = sampleDgram(tm, seq)
		tm = tm.Add(Duration(5000))
		seq += 1460
	}
	conn := &memPacketConn{dgrams: dgrams}
	col := NewCollector(CollectorConfig{SwitchName: "mem", LinkRate: 10 * Gbps})
	var st UDPServeStats

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	n, err := ServeUDPBatched(conn, col, total, 32, &st)
	runtime.ReadMemStats(&m1)
	if err != nil || n != total {
		t.Fatalf("ServeUDPBatched = (%d, %v), want (%d, nil)", n, err, total)
	}
	if got := st.Samples.Load(); got != total {
		t.Fatalf("Samples = %d, want %d", got, total)
	}
	mallocs := m1.Mallocs - m0.Mallocs
	if mallocs > 64 {
		t.Fatalf("%d allocations over %d datagrams (%.3f/datagram); batched loop must not allocate per datagram",
			mallocs, total, float64(mallocs)/total)
	}
	if st.ShortDatagrams.Load()+st.TimestampRegressions.Load()+st.IngestErrors.Load() != 0 {
		t.Fatalf("clean stream misclassified: %+v", &st)
	}
	if cs := col.Stats(); cs.Flows != 1 || cs.Samples != total {
		t.Fatalf("collector stats %+v", cs)
	}
}

// TestServeUDPBatchedAccounting feeds the batched loop a malformed mix
// — short datagram, timestamp regression, unparseable frame — and checks
// each datagram lands in the right counter, and that the collector's end
// state matches a serial collector fed the same stream. The mix arrives
// once through the in-memory conn (the one-datagram-per-cycle fallback)
// and once queued on a loopback socket (the non-blocking drain).
func TestServeUDPBatchedAccounting(t *testing.T) {
	dgrams := [][]byte{
		sampleDgram(Time(1000000), 0),                        // good
		sampleDgram(Time(2000000), 1460),                     // good
		{1, 2, 3},                                            // short datagram
		sampleDgram(Time(500000), 2920),                      // timestamp regression
		EncodeSample(nil, Time(3000000), []byte{0xde, 0xad}), // unparseable frame
		sampleDgram(Time(4000000), 2920),                     // good
		sampleDgram(Time(5000000), 4380),                     // good
		sampleDgram(Time(6000000), 5840),                     // good
	}
	inputs := []struct {
		name string
		conn func(t *testing.T) net.PacketConn
	}{
		{"mem", func(*testing.T) net.PacketConn { return &memPacketConn{dgrams: dgrams} }},
		{"loopback", func(t *testing.T) net.PacketConn {
			lc := loopbackQueue(t, dgrams)
			if rawUDPConn(lc) == nil {
				t.Skip("no non-blocking socket reads on this platform")
			}
			lc.SetReadDeadline(time.Now().Add(2 * time.Second)) // ends the loop if the kernel dropped any
			return lc
		}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			// The short datagram does not count toward the budget: 8
			// datagrams are 7 countable reads.
			col := NewCollector(CollectorConfig{SwitchName: "batched", LinkRate: 10 * Gbps})
			var st UDPServeStats
			n, err := ServeUDPBatched(in.conn(t), col, 7, 4, &st)
			if err != nil || n != 7 {
				t.Fatalf("ServeUDPBatched = (%d, %v), want (7, nil)", n, err)
			}
			if got := st.Samples.Load(); got != 5 {
				t.Fatalf("Samples = %d, want 5", got)
			}
			if got := st.ShortDatagrams.Load(); got != 1 {
				t.Fatalf("ShortDatagrams = %d, want 1", got)
			}
			if got := st.TimestampRegressions.Load(); got != 1 {
				t.Fatalf("TimestampRegressions = %d, want 1", got)
			}
			if got := st.IngestErrors.Load(); got != 1 {
				t.Fatalf("IngestErrors = %d, want 1", got)
			}

			serial := NewCollector(CollectorConfig{SwitchName: "serial", LinkRate: 10 * Gbps})
			for _, d := range dgrams {
				if tm, frame, derr := DecodeSample(d); derr == nil {
					_ = serial.Ingest(tm, frame)
				}
			}
			if bs, ss := col.Stats(), serial.Stats(); bs.Flows != ss.Flows ||
				bs.RateUpdates != ss.RateUpdates || bs.DecodeErrors != ss.DecodeErrors {
				t.Fatalf("collector end state diverged\n batched: %+v\n serial:  %+v", bs, ss)
			}
		})
	}
}

// TestServeUDPBatchedLoopback runs the batched loop against real
// loopback UDP — kernel-queue drain cycles, genuine read deadlines —
// and checks the flow reconstructs.
func TestServeUDPBatchedLoopback(t *testing.T) {
	lc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	col := NewCollector(CollectorConfig{SwitchName: "live", LinkRate: 10 * Gbps})
	done := make(chan int, 1)
	const total = 500
	// No standing deadline: the batched loop manages the read deadline
	// itself (and clears it each cycle); the timeout below closes the
	// conn if kernel drops leave the loop short of its budget.
	go func() {
		n, _ := ServeUDPBatched(lc, col, total, 0, nil) // 0 = DefaultUDPBatch
		done <- n
	}()

	sender, err := net.Dial("udp", lc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	var tm Time
	var seq uint32
	for i := 0; i < total; i++ {
		if _, err := sender.Write(sampleDgram(tm, seq)); err != nil {
			t.Fatal(err)
		}
		seq += 1460
		tm = tm.Add(Duration(5000))
	}
	var got int
	select {
	case got = <-done:
	case <-time.After(2 * time.Second):
		lc.Close() // unblock the loop; it flushes and returns (n, nil)
		got = <-done
	}
	if got < total/2 { // UDP over loopback is lossy-in-principle
		t.Fatalf("ingested %d of %d samples", got, total)
	}
	st := col.Stats()
	if st.Flows != 1 {
		t.Fatalf("flows %d", st.Flows)
	}
	key := packetpkg.FlowKey{
		SrcIP: packetpkg.IPv4{10, 0, 0, 1}, DstIP: packetpkg.IPv4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, Proto: packetpkg.IPProtocolTCP,
	}
	if _, ok := col.FlowRate(key); !ok {
		t.Fatal("live flow not estimated")
	}
}

// recordingIngester notes the size of every IngestBatch call.
type recordingIngester struct {
	batches []int
}

func (r *recordingIngester) Ingest(Time, []byte) error { r.batches = append(r.batches, 1); return nil }
func (r *recordingIngester) IngestBatch(ts []Time, _ [][]byte) error {
	r.batches = append(r.batches, len(ts))
	return nil
}

// queuedSocket returns a loopback socket whose kernel queue already
// holds k sample datagrams; nothing further is sent to it.
func queuedSocket(t *testing.T, k int) *net.UDPConn {
	t.Helper()
	dgrams := make([][]byte, k)
	for i := range dgrams {
		dgrams[i] = sampleDgram(Time(1000*(i+1)), uint32(1460*i))
	}
	return loopbackQueue(t, dgrams)
}

// loopbackQueue returns a loopback socket whose kernel queue already
// holds dgrams, in order; nothing further is sent to it.
func loopbackQueue(t *testing.T, dgrams [][]byte) *net.UDPConn {
	t.Helper()
	lc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	_ = lc.SetReadBuffer(4 << 20) // room for the largest queue used here
	sender, err := net.Dial("udp", lc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	for _, d := range dgrams {
		if _, err := sender.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // loopback delivers within the write; be generous
	return lc
}

// serveQueuedBurst runs the batched loop on wrap(a socket holding a
// burst of k datagrams) with nothing further sent and nothing closed: a
// read deadline the caller set beforehand is the loop's only way out.
// It returns the loop's result and the batches the ingester saw.
func serveQueuedBurst(t *testing.T, k int, wrap func(*net.UDPConn) net.PacketConn) (n int, batches []int, err error) {
	t.Helper()
	lc := queuedSocket(t, k)
	if err := lc.SetReadDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	conn := wrap(lc)
	rec := &recordingIngester{}
	done := make(chan struct{})
	go func() {
		n, err = ServeUDPBatched(conn, rec, 0, 32, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		lc.Close()
		<-done
		t.Fatalf("loop still blocked 5 s after the burst: the caller's read deadline did not end it (batches so far %v)", rec.batches)
	}
	return n, rec.batches, err
}

// TestServeUDPBatchedFlushesWhenDrained: a burst the kernel already
// holds reaches the collector as one batch the moment the socket runs
// dry — no second burst, no close and no deadline of the loop's own
// ends the cycle — and the loop leaves the caller's read deadline alone.
func TestServeUDPBatchedFlushesWhenDrained(t *testing.T) {
	const k = 10
	n, batches, err := serveQueuedBurst(t, k, func(c *net.UDPConn) net.PacketConn {
		if rawUDPConn(c) == nil {
			t.Skip("no non-blocking socket reads on this platform")
		}
		return c
	})
	if n != k || err != nil {
		t.Fatalf("ServeUDPBatched = (%d, %v), want (%d, nil) once the caller's deadline passes", n, err, k)
	}
	if len(batches) != 1 || batches[0] != k {
		t.Fatalf("batches %v, want the whole queued burst in one: [%d]", batches, k)
	}
}

// TestServeUDPBatchedPacketConnFallback: a PacketConn that is not a
// *net.UDPConn cannot be asked for a datagram without waiting for one,
// so every cycle is its one blocking read.
func TestServeUDPBatchedPacketConnFallback(t *testing.T) {
	const k = 10
	n, batches, err := serveQueuedBurst(t, k, func(c *net.UDPConn) net.PacketConn {
		return struct{ net.PacketConn }{c}
	})
	if n != k || err != nil {
		t.Fatalf("ServeUDPBatched = (%d, %v), want (%d, nil)", n, err, k)
	}
	if len(batches) != k {
		t.Fatalf("batches %v, want %d batches of one", batches, k)
	}
}

// TestServeUDPBatchedCountsFallback: a serve loop that starts on the
// one-datagram-per-cycle fallback says so in UDPServeStats, once per
// loop; one draining a UDP socket does not.
func TestServeUDPBatchedCountsFallback(t *testing.T) {
	const k = 4
	var st UDPServeStats
	wrapped := struct{ net.PacketConn }{queuedSocket(t, k)}
	if n, err := ServeUDPBatched(wrapped, &recordingIngester{}, k, 32, &st); n != k || err != nil {
		t.Fatalf("ServeUDPBatched = (%d, %v), want (%d, nil)", n, err, k)
	}
	if got := st.UnbatchedServes.Load(); got != 1 {
		t.Fatalf("UnbatchedServes = %d after one loop on a wrapped conn, want 1", got)
	}
	if got := st.Samples.Load(); got != k {
		t.Fatalf("Samples = %d, want %d", got, k)
	}

	lc := queuedSocket(t, k)
	if rawUDPConn(lc) == nil {
		t.Skip("no non-blocking socket reads on this platform")
	}
	if n, err := ServeUDPBatched(lc, &recordingIngester{}, k, 32, &st); n != k || err != nil {
		t.Fatalf("ServeUDPBatched = (%d, %v), want (%d, nil)", n, err, k)
	}
	if got := st.UnbatchedServes.Load(); got != 1 {
		t.Fatalf("UnbatchedServes = %d after a loop on a UDP socket, want it unchanged at 1", got)
	}
}

// TestServeUDPBatchedSocketCyclesDoNotAllocate holds the real-socket
// drain cycle to the in-memory loop's promise: 64 cycles over a queue
// the kernel already holds allocate nothing beyond the loop's set-up.
func TestServeUDPBatchedSocketCyclesDoNotAllocate(t *testing.T) {
	const total, batch = 512, 8
	lc := queuedSocket(t, total)
	if rawUDPConn(lc) == nil {
		t.Skip("no non-blocking socket reads on this platform")
	}
	lc.SetReadDeadline(time.Now().Add(2 * time.Second)) // ends the loop if the kernel dropped any

	rec := &recordingIngester{batches: make([]int, 0, total)}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	n, err := ServeUDPBatched(lc, rec, total, batch, nil)
	runtime.ReadMemStats(&m1)
	if n != total || err != nil {
		t.Fatalf("ServeUDPBatched = (%d, %v), want (%d, nil)", n, err, total)
	}
	if len(rec.batches) != total/batch {
		t.Fatalf("%d cycles, want %d full ones", len(rec.batches), total/batch)
	}
	if mallocs := m1.Mallocs - m0.Mallocs; mallocs > 32 {
		t.Fatalf("%d allocations over %d cycles; a drain cycle must not allocate", mallocs, len(rec.batches))
	}
}
