package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"planck"
	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/pcap"
	"planck/internal/units"
	"planck/internal/vantagelink"
)

var (
	macA = packet.MAC{0x02, 0, 0, 0, 0, 1}
	macB = packet.MAC{0x02, 0, 0, 0, 0, 2}
	ipA  = packet.IPv4{10, 0, 0, 1}
	ipB  = packet.IPv4{10, 0, 0, 2}
)

// segment is one 1460-byte TCP data segment of the flow from port src.
func segment(src uint16, seq uint32) []byte {
	return packet.BuildTCP(nil, packet.TCPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: src, DstPort: 5001, Seq: seq, Flags: packet.TCPAck, PayloadLen: 1460,
	})
}

// writeCapture writes a 4 ms capture to a pcap file: three flows at
// one segment per 10, 20 and 40 µs, plus one ARP frame and one
// truncated frame.
func writeCapture(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.WithNanosecondResolution())
	if err != nil {
		t.Fatal(err)
	}
	put := func(at units.Time, frame []byte) {
		if err := w.WriteRecord(pcap.Record{Time: at, Data: frame}); err != nil {
			t.Fatal(err)
		}
	}
	base := units.Time(units.Second)
	put(base, packet.BuildARP(nil, packet.ARPSpec{
		SrcMAC: macA, DstMAC: macB, Op: packet.ARPRequest,
		SenderMAC: macA, SenderIP: ipA, TargetIP: ipB,
	}))
	var seq [3]uint32
	for us := 0; us < 4000; us += 10 {
		for i, every := range []int{10, 20, 40} {
			if us%every == 0 {
				put(base.Add(units.Duration(us)*units.Microsecond), segment(uint16(1000+i), seq[i]))
				seq[i] += 1460
			}
		}
	}
	put(base.Add(4*units.Millisecond), segment(9, 0)[:30])
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// stripTimings drops the report's wall-clock line, the one part of it
// that differs from run to run.
func stripTimings(s string) string {
	var keep []string
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "ingest wall time:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

// replayGolden is the report for writeCapture's pcap: each flow's rate
// is exactly 1460 B per its segment interval.
const replayGolden = `replayed 702 frames: 3 flows, 15 rate updates, 1 decode errors, 1 non-TCP
top flows by last estimated rate:
  tcp 10.0.0.1:1000>10.0.0.2:5001                1.168Gbps  (400 samples)
  tcp 10.0.0.1:1001>10.0.0.2:5001                  584Mbps  (200 samples)
  tcp 10.0.0.1:1002>10.0.0.2:5001                  292Mbps  (100 samples)
`

func TestReplayPcapGolden(t *testing.T) {
	path := writeCapture(t)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-pcap", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if got := stripTimings(stdout.String()); got != replayGolden {
		t.Fatalf("report differs from golden:\n%s\nwant:\n%s", got, replayGolden)
	}
	if !strings.Contains(stdout.String(), "ingest wall time: p50=") {
		t.Errorf("report lacks the ingest timing line:\n%s", stdout.String())
	}
}

func TestUsageErrors(t *testing.T) {
	path := writeCapture(t)
	for _, args := range [][]string{
		nil,
		{"-pcap", path, "-threshold", "0.8"},
		{"-pcap", path, "-rate", "10"},
		{"-pcap", "x.pcap", "-listen", "127.0.0.1:0"},
		{"-pcap", "x.pcap", "-report", "127.0.0.1:9"},
		{"-listen", "127.0.0.1:0", "-vantage", "0"},
		{"-no-such-flag"},
		// Faults that need a collector node, a supervisor or an event
		// channel, none of which the command has.
		{"-pcap", path, "-fault", "stall@1ms-2ms"},
		{"-pcap", path, "-fault", "crash@1ms"},
		{"-pcap", path, "-fault", "partition@1ms-2ms"},
		{"-pcap", path, "-fault", "loss:0.05,chandelay:5ms"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if slices.Contains(args, "-fault") && !strings.Contains(stderr.String(), "injects only loss, corrupt, dup, reorder and skew") {
			t.Errorf("%q: stderr does not name the kinds the command injects:\n%s", args, stderr.String())
		}
	}
}

// syncBuffer is a bytes.Buffer safe to read while run writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// session is one live run of the command on a loopback socket.
type session struct {
	stdout, stderr syncBuffer
	cancel         context.CancelFunc
	done           chan int
	conn           net.Conn // dialled to the command's listen address
}

var listenLine = regexp.MustCompile(`listening on (\S+)\n`)

// startLive runs the command with args plus -listen 127.0.0.1:0 and
// dials the address it reports.
func startLive(t *testing.T, args ...string) *session {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &session{cancel: cancel, done: make(chan int, 1)}
	t.Cleanup(cancel)
	go func() {
		s.done <- run(ctx, append([]string{"-listen", "127.0.0.1:0"}, args...), &s.stdout, &s.stderr)
	}()
	var addr string
	waitFor(t, "listen address", func() bool {
		m := listenLine.FindStringSubmatch(s.stdout.String())
		if m != nil {
			addr = m[1]
		}
		return m != nil
	})
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	s.conn = conn
	return s
}

// sendSamples sends n valid samples of one flow, stamped with the
// epoch wall clock, a little apart so the loopback buffer never fills.
func (s *session) sendSamples(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		frame := segment(1000, uint32(i)*1460)
		if _, err := s.conn.Write(planck.EncodeSample(nil, units.Time(time.Now().UnixNano()), frame)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (s *session) exitCode(t *testing.T) int {
	t.Helper()
	select {
	case code := <-s.done:
		return code
	case <-time.After(10 * time.Second):
		t.Fatalf("command did not exit; stdout:\n%s", s.stdout.String())
		return -1
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestListenCountsMalformedDatagrams: datagrams too short to carry the
// timestamp header are counted, do not use up -max-samples, and the
// valid samples behind them still reach the collector.
func TestListenCountsMalformedDatagrams(t *testing.T) {
	s := startLive(t, "-max-samples", "4")
	for i := 0; i < 3; i++ {
		if _, err := s.conn.Write([]byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	s.sendSamples(t, 4)
	if code := s.exitCode(t); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, s.stderr.String())
	}
	if want := "malformed input: 3 short datagrams, 0 timestamp regressions, 0 unparseable frames\n"; !strings.Contains(s.stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, s.stderr.String())
	}
	if want := "replayed 4 frames: 1 flows,"; !strings.Contains(s.stdout.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, s.stdout.String())
	}
}

// TestListenShutsDownOnCancel: with no sample budget, cancelling the
// context ends the session cleanly, final report included.
func TestListenShutsDownOnCancel(t *testing.T) {
	s := startLive(t)
	s.cancel()
	if code := s.exitCode(t); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, s.stderr.String())
	}
	if want := "replayed 0 frames: 0 flows,"; !strings.Contains(s.stdout.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, s.stdout.String())
	}
}

// countingSink counts the records a vantage delivers to the plane.
type countingSink struct{ n int }

func (c *countingSink) Report(*core.FlowReport) { c.n++ }
func (c *countingSink) Live(units.Time)         {}
func (c *countingSink) Rejoin(uint32)           {}

// TestListenReportForwardsToPlane runs the command as one vantage of a
// fleet with nothing but -listen and -report: it must start whatever
// the host's core count, and every record it sends must reach a
// loopback plane receiver.
func TestListenReportForwardsToPlane(t *testing.T) {
	rx, err := vantagelink.ListenUDPReceiver("127.0.0.1:0", vantagelink.ReceiverConfig{
		HoldTimeout: 200 * units.Millisecond, // wall clocks jitter; don't exclude
	}, vantagelink.NewEpochWallClock(), units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	sink := &countingSink{}
	rx.Join(1, sink)

	const samples = 20
	s := startLive(t, "-report", rx.Addr())
	s.sendSamples(t, samples)
	received := func() (n int64) {
		rx.Locked(func() { n = rx.Receiver().RecordsReceived() })
		return n
	}
	waitFor(t, "records at the plane", func() bool { return received() == samples })
	s.cancel()
	if code := s.exitCode(t); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, s.stderr.String())
	}
	m := regexp.MustCompile(`vantage link: \d+ frames / (\d+) records sent`).FindStringSubmatch(s.stdout.String())
	if m == nil {
		t.Fatalf("no vantage link line in report:\n%s", s.stdout.String())
	}
	if sent, _ := strconv.Atoi(m[1]); sent != samples {
		t.Errorf("collector sent %d records, want %d", sent, samples)
	}
	rx.Close()
	if sink.n != samples {
		t.Errorf("plane delivered %d records, want %d", sink.n, samples)
	}
}
