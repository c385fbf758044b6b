package controller

import (
	"math/rand"
	"slices"

	"planck/internal/core"
	"planck/internal/obs"
	"planck/internal/obs/trace"
	"planck/internal/sim"
	"planck/internal/units"
)

// The retry policy of collector→controller event delivery, chosen for
// the millisecond control loop: a congestion event is worthless after
// a few tens of milliseconds (the congestion either cleared or TCP
// collapsed), so delivery gives up quickly rather than queueing stale
// events.
const (
	backoffBase   = 500 * units.Microsecond // delay before the first retry
	backoffMax    = 8 * units.Millisecond   // cap on any one retry's delay
	backoffFactor = 2                       // delay growth per retry
	// backoffJitter is the fraction of each delay that is randomized —
	// the delay is scaled by a uniform draw from [1−J/2, 1+J/2] — so
	// synchronized collectors do not retry in lockstep against a
	// recovering controller.
	backoffJitter = 0.2
	maxAttempts   = 6 // total sends, the first included
)

// backoff returns the delay before retry number retry (1-based) before
// jitter: backoffBase × backoffFactor^(retry−1), capped at backoffMax.
func backoff(retry int) units.Duration {
	d := backoffBase
	for i := 1; i < retry && d < backoffMax; i++ {
		d *= backoffFactor
	}
	return min(d, backoffMax)
}

// backoffDelay returns the jittered backoff before retry number retry,
// drawing from rng.
func backoffDelay(retry int, rng *rand.Rand) units.Duration {
	d := float64(backoff(retry)) * (1 - backoffJitter/2 + backoffJitter*rng.Float64())
	return units.Duration(max(d, 1))
}

// DeliveryMetrics are the obs instruments of one Deliverer.
type DeliveryMetrics struct {
	Delivered obs.Counter // events that reached the controller
	Retries   obs.Counter // individual re-send attempts
	Abandoned obs.Counter // events dropped after maxAttempts sends
	// Backoff records the µs slept before each retry.
	Backoff *obs.Histogram
}

// Register exposes the delivery counters on reg under a shared label
// set.
func (m *DeliveryMetrics) Register(reg *obs.Registry, labels ...string) {
	reg.MustRegister("planck_delivery_delivered_total", &m.Delivered, labels...)
	reg.MustRegister("planck_delivery_retries_total", &m.Retries, labels...)
	reg.MustRegister("planck_delivery_abandoned_total", &m.Abandoned, labels...)
	if m.Backoff == nil {
		m.Backoff = obs.NewScaledHistogram(1e-3) // ns observations → µs buckets
	}
	reg.MustRegister("planck_delivery_backoff_us", m.Backoff, labels...)
}

// Deliverer pushes congestion events from a collector to the
// controller with bounded retry and exponential backoff. The transport
// seams are injected so the state machine runs inside the
// discrete-event simulator (after = engine timer) and under test with
// a hand-fired timer:
//
//	send   attempts one delivery; a non-nil error means "retry later"
//	after  schedules fn once, d from now
//
// Deliverer is not safe for concurrent use: in the lab every method
// runs on the engine goroutine.
type Deliverer struct {
	rng   *rand.Rand
	send  func(now units.Time, ev core.CongestionEvent) error
	after func(d units.Duration, fn func(now units.Time))

	// Metrics may be read at any time.
	Metrics DeliveryMetrics

	// Tracer, when set, records each retry's backoff and terminal
	// abandonment on the event's control-loop span.
	Tracer *trace.Tracer

	inFlight int
}

// NewDeliverer builds a deliverer over explicit seams. seed feeds the
// jitter PRNG; rng state is private to the deliverer so retries never
// perturb data-plane determinism.
func NewDeliverer(seed int64,
	send func(now units.Time, ev core.CongestionEvent) error,
	after func(d units.Duration, fn func(now units.Time))) *Deliverer {
	return &Deliverer{
		rng:   rand.New(rand.NewSource(seed)),
		send:  send,
		after: after,
	}
}

// NewSimDeliverer wires a deliverer to a simulation engine's timer
// wheel: retries fire as engine events on the engine goroutine.
func NewSimDeliverer(eng *sim.Engine, seed int64,
	send func(now units.Time, ev core.CongestionEvent) error) *Deliverer {
	return NewDeliverer(seed, send,
		func(d units.Duration, fn func(now units.Time)) {
			eng.After(d, sim.Callback(fn), nil)
		})
}

// Deliver attempts to hand ev to the controller, retrying with
// jittered exponential backoff. It returns after the first attempt; retries run from the
// injected timer. A retry, or a send that delays the handoff, outlives
// the emit that lent ev its Flows, so Deliver sends its own copy.
func (d *Deliverer) Deliver(now units.Time, ev core.CongestionEvent) {
	ev.Flows = slices.Clone(ev.Flows)
	d.attempt(now, ev, 1)
}

func (d *Deliverer) attempt(now units.Time, ev core.CongestionEvent, n int) {
	err := d.send(now, ev)
	if err == nil {
		d.Metrics.Delivered.Inc()
		return
	}
	if n >= maxAttempts {
		d.Metrics.Abandoned.Inc()
		if d.Tracer != nil {
			d.Tracer.Drop(ev.ID, trace.OutcomeAbandoned)
		}
		return
	}
	delay := backoffDelay(n, d.rng)
	d.Metrics.Retries.Inc()
	if d.Tracer != nil {
		d.Tracer.RecordRetry(ev.ID, delay)
	}
	if d.Metrics.Backoff != nil {
		d.Metrics.Backoff.Observe(int64(delay))
	}
	d.inFlight++
	d.after(delay, func(at units.Time) {
		d.inFlight--
		d.attempt(at, ev, n+1)
	})
}
