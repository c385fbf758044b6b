// Package governor closes Planck's last open loop: the sampling rate
// itself. Oversubscribed mirroring makes the effective per-port
// sampling rate an emergent, load-dependent quantity (§3.1, Fig. 9) —
// the repo measures through it everywhere, and this package is where it
// is finally estimated online and managed. A RateEstimator reads the
// switch's per-port mirror counters (admitted vs tail-dropped copies —
// the drops ARE the sampling mechanism), yielding an effective-rate
// estimate with an attached confidence; a Governor consumes those
// estimates and actuates mirror configuration — shedding low-value
// ports or tuning per-port sample-rate budgets — through the same
// epoch-versioned snapshot/diff plane reroutes ride.
package governor

import (
	"math"

	"planck/internal/stats"
	"planck/internal/units"
)

// EstimatorWindow is the estimator's sliding window.
const EstimatorWindow = 8 * units.Millisecond

// estBuckets is the ring size of the estimation window: the window is
// split into 8 buckets so estimates age out smoothly.
const estBuckets = 8

// bucketDur is the time slice one bucket covers.
const bucketDur = EstimatorWindow / estBuckets

// estBucket is one time slice of a port's estimation window. Stale
// entries are lazily reset when their slot is reused.
type estBucket struct {
	id int64 // absolute bucket number

	queuedBytes int64 // mirror copies admitted to the monitor queue
	queuedPkts  int64
	dropBytes   int64 // mirror copies tail-dropped (sampling drops)
	dropPkts    int64
}

// portState is one egress port's ring plus the counter baselines the
// delta extraction works from.
type portState struct {
	ring [estBuckets]estBucket

	// lastQueued/lastDropped are the absolute counter values seen by
	// the previous RecordMirrorCounters call; seen gates the first call
	// so pre-attach traffic never lands in the window.
	lastQueued, lastDropped stats.Counter
	seen                    bool
}

// Estimate is one port's (or one switch's aggregate) effective
// sampling-rate estimate over the window.
type Estimate struct {
	// Offered is the rate of traffic offered to the mirror tap: the sum
	// of admitted and dropped copy rates.
	Offered units.Rate
	// Admitted is the rate of mirror copies that made the monitor
	// queue; Dropped is the rate tail-dropped at the mirror allocation.
	Admitted, Dropped units.Rate
	// Effective is the effective sampling rate in [0,1]: the fraction
	// of offered mirror traffic that survived to the monitor queue.
	// 1 when the mirror counters did not move over the window: nothing
	// was offered to the tap, so there was nothing to sample.
	Effective float64
	// Samples is the packet count backing the estimate.
	Samples int64
	// Confidence in [0,1] discounts the estimate by its statistical
	// weight via the §2.1 error model (≈196·sqrt(1/s)% at 95%):
	// 1 − min(1, 1.96/sqrt(Samples)). Zero when nothing was observed.
	Confidence float64
}

// RateEstimator estimates per-port effective sampling rates online from
// the switch's per-port mirror counters, folded in by
// RecordMirrorCounters (the governor's polling path). All state is
// fixed-size per port, so the update is allocation-free
// (TestEstimatorUpdatesDoNotAllocate pins this).
type RateEstimator struct {
	ports []portState
}

// NewRateEstimator builds an estimator over a switch with the given
// port count.
func NewRateEstimator(numPorts int) *RateEstimator {
	return &RateEstimator{ports: make([]portState, numPorts)}
}

// RecordMirrorCounters folds port p's cumulative mirror counters
// (absolute values, as switchsim.Switch.MirrorPortCounters reports
// them) into the window as deltas since the previous call. The first
// call per port only establishes the baseline.
func (e *RateEstimator) RecordMirrorCounters(now units.Time, p int, queued, dropped stats.Counter) {
	if p < 0 || p >= len(e.ports) {
		return
	}
	ps := &e.ports[p]
	if ps.seen {
		dq, dd := queued, dropped
		dq.Packets -= ps.lastQueued.Packets
		dq.Bytes -= ps.lastQueued.Bytes
		dd.Packets -= ps.lastDropped.Packets
		dd.Bytes -= ps.lastDropped.Bytes
		if dq.Packets > 0 || dd.Packets > 0 {
			b := ps.bucket(now)
			b.queuedBytes += dq.Bytes
			b.queuedPkts += dq.Packets
			b.dropBytes += dd.Bytes
			b.dropPkts += dd.Packets
		}
	}
	ps.lastQueued, ps.lastDropped = queued, dropped
	ps.seen = true
}

// bucket resolves (and lazily resets) the window slot for time t.
func (ps *portState) bucket(t units.Time) *estBucket {
	id := int64(t) / int64(bucketDur)
	b := &ps.ring[id%estBuckets]
	if b.id != id {
		*b = estBucket{id: id}
	}
	return b
}

// window sums the port's live buckets at time now.
func (ps *portState) window(now units.Time) (sum estBucket) {
	cur := int64(now) / int64(bucketDur)
	for _, b := range ps.ring {
		if b.id > cur-estBuckets && b.id <= cur {
			sum.add(b)
		}
	}
	return sum
}

// add accumulates o's counts into b.
func (b *estBucket) add(o estBucket) {
	b.queuedBytes += o.queuedBytes
	b.queuedPkts += o.queuedPkts
	b.dropBytes += o.dropBytes
	b.dropPkts += o.dropPkts
}

// confidence maps a backing sample count onto [0,1] via the §2.1 error
// model: 1 − min(1, 1.96/sqrt(n)).
func confidence(n int64) float64 {
	if n <= 0 {
		return 0
	}
	c := 1 - 1.96/math.Sqrt(float64(n))
	if c < 0 {
		return 0
	}
	return c
}

// estimateFrom converts a summed window into an Estimate. A window whose
// mirror counters did not move reads "nothing offered to the tap":
// effective 1 at zero confidence, whether the port is idle or its tap
// is shed.
func estimateFrom(w estBucket) Estimate {
	est := Estimate{Effective: 1}
	offered := w.queuedBytes + w.dropBytes
	if offered <= 0 {
		return est
	}
	est.Offered = units.RateOf(offered, EstimatorWindow)
	est.Admitted = units.RateOf(w.queuedBytes, EstimatorWindow)
	est.Dropped = units.RateOf(w.dropBytes, EstimatorWindow)
	est.Effective = float64(w.queuedBytes) / float64(offered)
	est.Samples = w.queuedPkts + w.dropPkts
	est.Confidence = confidence(est.Samples)
	return est
}

// Estimate returns port p's effective sampling-rate estimate at now.
func (e *RateEstimator) Estimate(now units.Time, p int) Estimate {
	if p < 0 || p >= len(e.ports) {
		return Estimate{Effective: 1}
	}
	return estimateFrom(e.ports[p].window(now))
}

// Aggregate returns the switch-wide estimate at now: the union of
// every port's window, i.e. the monitor port's view of its whole feed.
func (e *RateEstimator) Aggregate(now units.Time) Estimate {
	var sum estBucket
	for p := range e.ports {
		sum.add(e.ports[p].window(now))
	}
	return estimateFrom(sum)
}
