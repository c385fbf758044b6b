package vantagelink

import (
	"math/rand"

	"planck/internal/faults"
	"planck/internal/obs"
	"planck/internal/units"
)

// Channel is one direction of a datagram path: fire-and-forget, may
// lose, duplicate, reorder, or corrupt. The transport above it assumes
// nothing else. Implementations: a synchronous in-memory hop for
// tests, an engine-scheduled simulated link (internal/lab), a
// connected *net.UDPConn (this package's udp.go), or a FaultGate
// wrapping any of them.
type Channel interface {
	// Send transmits one datagram. now is the sender's current time
	// (virtual in simulation, wall-derived over UDP); the buffer is
	// only borrowed for the call. A non-nil error means the local send
	// failed outright — in-flight loss is silent, as on a real wire.
	Send(now units.Time, dgram []byte) error
}

// ChannelFunc adapts a function to Channel.
type ChannelFunc func(now units.Time, dgram []byte) error

// Send implements Channel.
func (f ChannelFunc) Send(now units.Time, dgram []byte) error { return f(now, dgram) }

// GateMetrics counts what a FaultGate did to the datagrams through it.
type GateMetrics struct {
	Sent        obs.Counter // datagrams offered to the gate
	Lost        obs.Counter // dropped by a loss rule
	Corrupted   obs.Counter // bit-flipped by a corrupt rule
	Duplicated  obs.Counter // delivered twice by a dup rule
	Reordered   obs.Counter // held and released behind a successor
	Partitioned obs.Counter // dropped by an active partition window
	Delayed     obs.Counter // deferred by a chandelay rule
}

// FaultGate interposes a faults.Schedule on a Channel: the report path
// equivalent of the mirror feed's FaultyIngester. Loss, corrupt, dup,
// and reorder draw from a seeded local RNG; partition drops every
// datagram in its window; chandelay defers delivery through the Defer
// hook (the lab wires it to the engine). Skew is deliberately not
// applied here — a skewed clock belongs to the sender's host (the times
// its Sender is handed, a WallClock's skew), not to the wire.
//
// A FaultGate is driven from one goroutine at a time, matching the
// Sender it fronts.
type FaultGate struct {
	next  Channel
	sched *faults.Schedule
	rng   *rand.Rand

	// Defer, when non-nil, implements chandelay: deliver must run once
	// at now+d. Without it, chandelay rules deliver immediately.
	Defer func(d units.Duration, deliver func())

	// held is the datagram a reorder rule is holding back; it is
	// released right after the next datagram goes out.
	held     []byte
	heldTime units.Time
	holding  bool

	Met GateMetrics
}

// NewFaultGate wraps next with a fault schedule and a seeded RNG.
// A nil or empty schedule passes everything through.
func NewFaultGate(next Channel, sched *faults.Schedule, seed int64) *FaultGate {
	return &FaultGate{next: next, sched: sched, rng: rand.New(rand.NewSource(seed))}
}

// SetSchedule replaces the gate's schedule and reseeds the RNG —
// tests use it to flip a healthy gate into a faulty one mid-run.
func (g *FaultGate) SetSchedule(sched *faults.Schedule, seed int64) {
	g.sched = sched
	g.rng = rand.New(rand.NewSource(seed))
}

// Send implements Channel.
func (g *FaultGate) Send(now units.Time, dgram []byte) error {
	g.Met.Sent.IncRelaxed()
	s := g.sched
	if s.Empty() {
		return g.next.Send(now, dgram)
	}
	if s.PartitionActive(now) {
		g.Met.Partitioned.IncRelaxed()
		return nil
	}
	if p := s.Prob(faults.KindLoss, now); p > 0 && g.rng.Float64() < p {
		g.Met.Lost.IncRelaxed()
		return nil
	}
	corrupt := false
	if p := s.Prob(faults.KindCorrupt, now); p > 0 && g.rng.Float64() < p {
		corrupt = true
	}
	dup := false
	if p := s.Prob(faults.KindDup, now); p > 0 && g.rng.Float64() < p {
		dup = true
	}
	if p := s.Prob(faults.KindReorder, now); p > 0 && !g.holding && g.rng.Float64() < p {
		// Hold this datagram; it departs right after its successor.
		g.held = append(g.held[:0], dgram...)
		g.heldTime = now
		g.holding = true
		g.Met.Reordered.IncRelaxed()
		return nil
	}
	err := g.deliver(now, dgram, corrupt)
	if dup {
		g.Met.Duplicated.IncRelaxed()
		if err2 := g.deliver(now, dgram, false); err == nil {
			err = err2
		}
	}
	if g.holding {
		g.holding = false
		held := g.held
		if err2 := g.deliver(now, held, false); err == nil {
			err = err2
		}
	}
	return err
}

// deliver passes one datagram down, applying corruption and chandelay.
// Corruption and deferral both copy: the caller only lends the buffer.
func (g *FaultGate) deliver(now units.Time, dgram []byte, corrupt bool) error {
	if corrupt {
		g.Met.Corrupted.IncRelaxed()
		cp := make([]byte, len(dgram))
		copy(cp, dgram)
		if len(cp) > 0 {
			cp[g.rng.Intn(len(cp))] ^= 1 << uint(g.rng.Intn(8))
		}
		dgram = cp
	}
	if d := g.sched.ChannelDelay(now); d > 0 && g.Defer != nil {
		g.Met.Delayed.IncRelaxed()
		cp := make([]byte, len(dgram))
		copy(cp, dgram)
		at := now.Add(d)
		g.Defer(d, func() { _ = g.next.Send(at, cp) })
		return nil
	}
	return g.next.Send(now, dgram)
}
