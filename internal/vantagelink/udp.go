package vantagelink

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"planck/internal/core"
	"planck/internal/units"
)

// WallClock maps wall time onto the repo's virtual units.Time axis:
// nanoseconds since the clock's creation, plus an optional constant
// skew for experiments. Each process (collector, plane) owns its own
// WallClock, so their bases differ — that inter-process offset is
// exactly what the link's heartbeat/Sync exchange measures away.
type WallClock struct {
	base time.Time
	skew units.Duration
}

// NewWallClock starts a clock at zero now.
func NewWallClock() *WallClock { return &WallClock{base: time.Now()} }

// NewSkewedWallClock starts a clock at zero now that reads skew fast.
func NewSkewedWallClock(skew units.Duration) *WallClock {
	return &WallClock{base: time.Now(), skew: skew}
}

// NewEpochWallClock reads Unix-epoch nanoseconds — for senders whose
// record timestamps are already epoch-stamped (a live sample stream),
// so heartbeats and records share one time axis and the sync exchange
// measures a meaningful offset.
func NewEpochWallClock() *WallClock { return &WallClock{base: time.Unix(0, 0)} }

// Now returns the current virtual time.
func (c *WallClock) Now() units.Time {
	return units.Time(time.Since(c.base).Nanoseconds()).Add(c.skew)
}

// socketReadBuffer is the kernel receive buffer both ends of the link
// ask for: the default (≈200 KB) holds a few milliseconds of report
// frames, so a host stall of 5 ms overflowed it and turned into NACKs
// and abandoned gaps; this holds a stall of some 100 ms, which then
// shows as delay. Best effort — the kernel caps it at rmem_max.
const socketReadBuffer = 4 << 20

// UDPSender runs a Sender over a connected UDP socket: datagrams go
// to the receiver's address, a reader goroutine feeds NACK/Sync
// replies back into the sender, and a ticker drives heartbeats and
// retransmits. All entry points serialize on one mutex, satisfying
// the Sender's single-goroutine contract.
type UDPSender struct {
	mu     sync.Mutex
	conn   *net.UDPConn
	s      *Sender
	clock  *WallClock
	tick   units.Duration
	done   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup
}

// DialUDPSender connects to the receiver at raddr and starts the
// reader and ticker goroutines. tick is the Tick cadence (heartbeats
// still go out once a millisecond); 0 means 250 µs. wrap, when
// non-nil, interposes on the outbound channel — e.g. a FaultGate that
// injects loss for resilience smokes over a real socket.
func DialUDPSender(raddr string, cfg SenderConfig, clock *WallClock, tick units.Duration, wrap func(Channel) Channel) (*UDPSender, error) {
	addr, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(socketReadBuffer) // best effort, see the constant
	if tick == 0 {
		tick = 250 * units.Microsecond
	}
	if clock == nil {
		clock = NewWallClock()
	}
	u := &UDPSender{conn: conn, clock: clock, tick: tick, done: make(chan struct{})}
	var ch Channel = ChannelFunc(func(_ units.Time, dgram []byte) error {
		_, err := conn.Write(dgram)
		return err
	})
	if wrap != nil {
		ch = wrap(ch)
	}
	u.s = NewSender(ch, cfg)
	u.wg.Add(2)
	go u.readLoop()
	go u.tickLoop()
	return u, nil
}

// Sender exposes the wrapped Sender for metrics reads; take no
// mutating calls on it directly — use the UDPSender methods.
func (u *UDPSender) Sender() *Sender { return u.s }

// Report queues one flow report (non-blocking; sheds under overload).
func (u *UDPSender) Report(rep *core.FlowReport) {
	u.mu.Lock()
	u.s.Report(rep)
	u.mu.Unlock()
}

// BatchEnd implements core.BatchEndSink: an ingest batch finished at
// stream time now — seal and transmit the frame under construction.
func (u *UDPSender) BatchEnd(now units.Time) {
	u.mu.Lock()
	u.s.BatchEnd(now)
	u.mu.Unlock()
}

// Flush closes and transmits the current batch.
func (u *UDPSender) Flush() {
	u.mu.Lock()
	u.s.Flush(u.clock.Now())
	u.mu.Unlock()
}

// Synced reports whether the clock-sync exchange has completed.
func (u *UDPSender) Synced() bool {
	u.mu.Lock()
	_, ok := u.s.Offset()
	u.mu.Unlock()
	return ok
}

func (u *UDPSender) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, err := u.conn.Read(buf)
		if err != nil {
			return // closed
		}
		u.mu.Lock()
		u.s.HandleControl(u.clock.Now(), buf[:n])
		u.mu.Unlock()
	}
}

func (u *UDPSender) tickLoop() {
	defer u.wg.Done()
	t := time.NewTicker(time.Duration(u.tick))
	defer t.Stop()
	for {
		select {
		case <-u.done:
			return
		case <-t.C:
			u.mu.Lock()
			u.s.Tick(u.clock.Now())
			u.mu.Unlock()
		}
	}
}

// Close flushes once more, stops the goroutines, and closes the socket.
func (u *UDPSender) Close() error {
	var err error
	u.closed.Do(func() {
		u.Flush()
		close(u.done)
		err = u.conn.Close()
		u.wg.Wait()
	})
	return err
}

// UDPReceiver runs a Receiver on a listening UDP socket. The reader
// goroutine learns each vantage's remote address from its first frame
// (a light header peek, before full validation) so the per-vantage
// control channel can route NACK and Sync replies back; a ticker
// drives gap NACKs and the watermark. One mutex serializes the
// Receiver and the sinks behind it.
type UDPReceiver struct {
	mu     sync.Mutex
	conn   *net.UDPConn
	r      *Receiver
	clock  *WallClock
	tick   units.Duration
	addrs  map[uint16]*net.UDPAddr
	done   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup
}

// ListenUDPReceiver binds laddr (e.g. "127.0.0.1:0") and starts the
// reader and ticker goroutines. Join vantages before senders dial in.
func ListenUDPReceiver(laddr string, cfg ReceiverConfig, clock *WallClock, tick units.Duration) (*UDPReceiver, error) {
	addr, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(socketReadBuffer) // best effort, see the constant
	if tick == 0 {
		tick = 250 * units.Microsecond
	}
	if clock == nil {
		clock = NewWallClock()
	}
	u := &UDPReceiver{
		conn: conn, r: NewReceiver(cfg), clock: clock, tick: tick,
		addrs: make(map[uint16]*net.UDPAddr), done: make(chan struct{}),
	}
	u.wg.Add(2)
	go u.readLoop()
	go u.tickLoop()
	return u, nil
}

// Addr returns the bound listen address for senders to dial.
func (u *UDPReceiver) Addr() string { return u.conn.LocalAddr().String() }

// Receiver exposes the wrapped Receiver for metrics reads; hold no
// reference across goroutines without the UDPReceiver's lock.
func (u *UDPReceiver) Receiver() *Receiver { return u.r }

// Join registers a vantage; its control replies go to whatever remote
// address that vantage's frames last arrived from.
func (u *UDPReceiver) Join(vantage uint16, sink ReportSink) {
	u.mu.Lock()
	u.r.Join(vantage, sink, ChannelFunc(func(_ units.Time, dgram []byte) error {
		raddr := u.addrs[vantage] // mutex already held: ctrl sends happen inside Receiver calls
		if raddr == nil {
			return nil
		}
		_, err := u.conn.WriteToUDP(dgram, raddr)
		return err
	}))
	u.mu.Unlock()
}

// Locked runs fn with the receiver lock held — for reading merged
// state (the aggregation plane) consistently from another goroutine.
func (u *UDPReceiver) Locked(fn func()) {
	u.mu.Lock()
	fn()
	u.mu.Unlock()
}

func (u *UDPReceiver) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		dgram := buf[:n]
		u.mu.Lock()
		// Learn/refresh the vantage's return address from the header
		// peek; full validation (magic, crc) happens in HandleDatagram.
		if n >= HeaderLen && binary.BigEndian.Uint32(dgram) == Magic {
			vantage := binary.BigEndian.Uint16(dgram[6:8])
			u.addrs[vantage] = raddr
		}
		u.r.HandleDatagram(u.clock.Now(), dgram)
		u.mu.Unlock()
	}
}

func (u *UDPReceiver) tickLoop() {
	defer u.wg.Done()
	t := time.NewTicker(time.Duration(u.tick))
	defer t.Stop()
	for {
		select {
		case <-u.done:
			return
		case <-t.C:
			u.mu.Lock()
			u.r.Tick(u.clock.Now())
			u.mu.Unlock()
		}
	}
}

// Close stops the goroutines, drains outstanding state into the
// sinks, and closes the socket.
func (u *UDPReceiver) Close() error {
	var err error
	u.closed.Do(func() {
		close(u.done)
		err = u.conn.Close()
		u.wg.Wait()
		u.mu.Lock()
		u.r.Drain()
		u.mu.Unlock()
	})
	return err
}
