package faults

import (
	"math/rand"

	"planck/internal/core"
	"planck/internal/obs"
	"planck/internal/units"
)

// Metrics counts the faults an Injector actually injected, so a chaos
// run can assert the schedule fired and dashboards can correlate
// estimate excursions with injected faults.
type Metrics struct {
	Lost       obs.Counter // frames dropped by a loss rule
	Corrupted  obs.Counter // frames with a flipped byte
	Duplicated obs.Counter // frames delivered twice
	Reordered  obs.Counter // held frames released behind their successor
	Skewed     obs.Counter // frames delivered with a shifted timestamp
}

// Register exposes the injector counters on reg under a shared label
// set (e.g. obs.Label("switch", name)).
func (m *Metrics) Register(reg *obs.Registry, labels ...string) {
	reg.MustRegister("planck_fault_lost_total", &m.Lost, labels...)
	reg.MustRegister("planck_fault_corrupted_total", &m.Corrupted, labels...)
	reg.MustRegister("planck_fault_duplicated_total", &m.Duplicated, labels...)
	reg.MustRegister("planck_fault_reordered_total", &m.Reordered, labels...)
	reg.MustRegister("planck_fault_skewed_total", &m.Skewed, labels...)
}

// Injector actuates the mirror-path faults of a Schedule on a frame
// stream. It is deterministic for a fixed (schedule, seed, stream)
// triple and is not safe for concurrent use — each collector feed gets
// its own Injector, matching the one-goroutine-per-feed ingest model.
type Injector struct {
	sched   *Schedule
	rng     *rand.Rand
	metrics *Metrics

	// One-deep reorder hold: a held frame is released immediately after
	// its successor, carrying its original (earlier) timestamp, so the
	// collector sees a genuine timestamp regression. A hold never
	// outlives its batch: Flush releases it at the batch's end.
	heldFrame []byte
	heldAt    units.Time
	holding   bool
}

// NewInjector builds an injector over sched with its own seeded PRNG.
// Metrics may be shared across injectors; pass nil for no counting.
func NewInjector(sched *Schedule, seed int64, metrics *Metrics) *Injector {
	if metrics == nil {
		metrics = &Metrics{}
	}
	return &Injector{sched: sched, rng: rand.New(rand.NewSource(seed)), metrics: metrics}
}

// Metrics returns the injector's fault counters.
func (in *Injector) Metrics() *Metrics { return in.metrics }

// Schedule returns the fault schedule the injector actuates, so the
// component hosting the injector can also consult the control-plane
// rules (stall, crash, partition, chandelay) the injector itself does
// not act on.
func (in *Injector) Schedule() *Schedule { return in.sched }

// Apply runs one mirrored frame through the fault schedule and invokes
// deliver zero or more times with the frames that survive. current is
// true only for the caller's own frame at its (possibly skewed)
// timestamp; duplicates and released held frames pass current=false so
// the caller can skip per-packet latency accounting for them. Frames
// passed to deliver with current=false are injector-owned copies and
// remain valid after Apply returns; the current frame aliases the
// caller's buffer as usual.
func (in *Injector) Apply(t units.Time, frame []byte, deliver func(t units.Time, frame []byte, current bool)) {
	if skew := in.sched.Skew(t); skew != 0 {
		t = t.Add(skew)
		in.metrics.Skewed.Inc()
	}

	if in.roll(KindLoss, t) {
		in.metrics.Lost.Inc()
		in.releaseHeld(deliver)
		return
	}

	if in.roll(KindCorrupt, t) && len(frame) > 0 {
		// Flip one random byte of a copy — the caller's buffer may be a
		// live wire buffer it still owns.
		cp := append([]byte(nil), frame...)
		cp[in.rng.Intn(len(cp))] ^= 1 << uint(in.rng.Intn(8))
		frame = cp
		in.metrics.Corrupted.Inc()
	}

	if !in.holding && in.roll(KindReorder, t) {
		in.heldFrame = append(in.heldFrame[:0], frame...)
		in.heldAt = t
		in.holding = true
		return
	}

	deliver(t, frame, true)
	if in.roll(KindDup, t) {
		in.metrics.Duplicated.Inc()
		deliver(t, append([]byte(nil), frame...), false)
	}
	// Only a hold released behind its successor is out of order; one
	// released by a loss or by Flush arrives in order.
	if in.holding {
		in.metrics.Reordered.Inc()
	}
	in.releaseHeld(deliver)
}

// Flush releases the frame held for reordering, if any, through
// deliver (current=false). Call it at the end of every batch of frames
// — a capture poll, an IngestBatch call — so that a hold taken on a
// batch's last frame releases it at the batch's end instead of losing
// it when no successor follows.
func (in *Injector) Flush(deliver func(t units.Time, frame []byte, current bool)) {
	in.releaseHeld(deliver)
}

func (in *Injector) releaseHeld(deliver func(t units.Time, frame []byte, current bool)) {
	if !in.holding {
		return
	}
	in.holding = false
	deliver(in.heldAt, append([]byte(nil), in.heldFrame...), false)
}

func (in *Injector) roll(k Kind, t units.Time) bool {
	p := in.sched.Prob(k, t)
	if p <= 0 {
		return false
	}
	// Draw even for p==1 so toggling a rule between 0.999 and 1 does
	// not shift the PRNG sequence for later frames.
	return in.rng.Float64() < p
}

// Ingester matches planck.Ingester structurally so the wrapper can sit
// in front of either pipeline without importing the facade.
type Ingester interface {
	Ingest(t units.Time, frame []byte) error
	IngestBatch(ts []units.Time, frames [][]byte) error
}

// FaultyIngester interposes an Injector in front of any Ingester —
// the seam used by planck-collector and live deployments, where the
// frame stream arrives via ServeUDPBatched rather than the lab's OnFrame tap.
type FaultyIngester struct {
	next Ingester
	in   *Injector
}

// Wrap interposes inj in front of next.
func Wrap(next Ingester, inj *Injector) *FaultyIngester {
	return &FaultyIngester{next: next, in: inj}
}

// Injector returns the wrapped injector (for metrics access).
func (f *FaultyIngester) Injector() *Injector { return f.in }

// Ingest applies the fault schedule and forwards surviving frames. It
// returns the first ingest error from the underlying pipeline.
func (f *FaultyIngester) Ingest(t units.Time, frame []byte) error {
	var first error
	f.in.Apply(t, frame, func(at units.Time, fr []byte, _ bool) {
		if err := f.next.Ingest(at, fr); err != nil && first == nil {
			first = err
		}
	})
	return first
}

// IngestBatch applies the fault schedule frame by frame — injected
// skew, reordering, and duplication change each frame's delivery, so a
// faulted batch cannot be forwarded wholesale — and releases a frame
// still held for reordering at the batch's end. Per-frame failures are
// aggregated into a *core.BatchError, matching the underlying
// pipelines' batch contract; the released frame's counts as the last
// frame's.
func (f *FaultyIngester) IngestBatch(ts []units.Time, frames [][]byte) error {
	n := len(ts)
	if len(frames) < n {
		n = len(frames)
	}
	var be *core.BatchError
	fail := func(i int, err error) {
		if be == nil {
			be = &core.BatchError{Index: i, Err: err}
		}
		be.Failed++
	}
	for i := 0; i < n; i++ {
		if err := f.Ingest(ts[i], frames[i]); err != nil {
			fail(i, err)
		}
	}
	f.in.Flush(func(at units.Time, fr []byte, _ bool) {
		if err := f.next.Ingest(at, fr); err != nil {
			fail(n-1, err)
		}
	})
	if be != nil {
		return be
	}
	return nil
}
