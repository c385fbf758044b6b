// Package governor closes Planck's last open loop: the sampling rate
// itself. Oversubscribed mirroring makes the effective per-port
// sampling rate an emergent, load-dependent quantity (§3.1, Fig. 9) —
// the repo measures through it everywhere, and this package is where it
// is finally estimated online and managed. A RateEstimator
// cross-references the switch's per-port mirror counters (admitted vs
// tail-dropped copies — the drops ARE the sampling mechanism) against
// an sFlow-style sampled byte stream, yielding an effective-rate
// estimate with an attached confidence; a Governor consumes those
// estimates and actuates mirror configuration — shedding low-value
// ports or tuning per-port sample-rate budgets — through the same
// epoch-versioned snapshot/diff plane reroutes ride.
package governor

import (
	"math"
	"math/rand"

	"planck/internal/packet"
	"planck/internal/sflow"
	"planck/internal/stats"
	"planck/internal/units"
)

// EstimatorWindow is the estimator's sliding window.
const EstimatorWindow = 8 * units.Millisecond

// estBuckets is the ring size of the estimation window: the window is
// split into 8 buckets so estimates age out smoothly.
const estBuckets = 8

// EstimatorConfig configures a RateEstimator.
type EstimatorConfig struct {
	// SFlow models the one-in-N sampled byte stream the estimator
	// cross-references mirror counters against (default: the paper's
	// G8264 numbers — 1-in-1024 capped at 300 samples/s).
	SFlow sflow.Config
	// Seed feeds the sampler's private PRNG so estimation never
	// perturbs data-plane determinism.
	Seed int64
}

// withDefaults fills zero fields.
func (c EstimatorConfig) withDefaults() EstimatorConfig {
	def := sflow.DefaultG8264()
	if c.SFlow.SampleRate <= 0 {
		c.SFlow.SampleRate = def.SampleRate
	}
	if c.SFlow.ControlPlaneCap <= 0 {
		c.SFlow.ControlPlaneCap = def.ControlPlaneCap
	}
	return c
}

// estBucket is one time slice of a port's estimation window. Stale
// entries are lazily reset when their slot is reused.
type estBucket struct {
	id int64 // absolute bucket number

	sampledBytes int64 // sFlow-selected bytes
	sampledPkts  int64

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
	// of admitted and dropped copy rates while the counters move, the
	// sFlow count-multiplied estimate when they are frozen (a shed or
	// dead tap still carries traffic the sFlow side sees).
	Offered units.Rate
	// Admitted is the rate of mirror copies that made the monitor
	// queue; Dropped is the rate tail-dropped at the mirror allocation.
	Admitted, Dropped units.Rate
	// Effective is the effective sampling rate in [0,1]: the fraction
	// of offered mirror traffic that survived to the monitor queue.
	// 1 when nothing was offered (nothing to sample), 0 when the sFlow
	// side sees traffic but the mirror counters are frozen.
	Effective float64
	// Samples is the packet count backing the estimate.
	Samples int64
	// Confidence in [0,1] discounts the estimate by its statistical
	// weight via the §2.1 error model (≈196·sqrt(1/s)% at 95%):
	// 1 − min(1, 1.96/sqrt(Samples)). Zero when nothing was observed.
	Confidence float64
}

// RateEstimator estimates per-port effective sampling rates online. It
// is fed from two sides: Observe offers every switched packet to the
// sFlow-style sampler, and RecordMirrorCounters folds in the switch's
// per-port mirror counters (the governor's polling path). All state is fixed-size per port, so
// both update paths are allocation-free
// (TestEstimatorUpdatesDoNotAllocate pins this).
type RateEstimator struct {
	cfg       EstimatorConfig
	bucketDur units.Duration
	sampler   *sflow.Sampler
	ports     []portState

	// curPort routes each sFlow sample to its port: the sampler's
	// callback has no port argument, so Observe stashes it here.
	// Engine-goroutine only.
	curPort int
}

// NewRateEstimator builds an estimator over a switch with the given
// port count.
func NewRateEstimator(cfg EstimatorConfig, numPorts int) *RateEstimator {
	cfg = cfg.withDefaults()
	e := &RateEstimator{
		cfg:       cfg,
		bucketDur: EstimatorWindow / estBuckets,
		ports:     make([]portState, numPorts),
	}
	e.sampler = sflow.NewSampler(cfg.SFlow, rand.New(rand.NewSource(cfg.Seed)), e.record)
	return e
}

// Observe offers one switched packet (egress port, flow key, wire
// length) to the sFlow-style sampler side of the estimator.
func (e *RateEstimator) Observe(now units.Time, outPort int, key packet.FlowKey, wireLen int) {
	if outPort < 0 || outPort >= len(e.ports) {
		return
	}
	e.curPort = outPort
	e.sampler.Observe(now, key, wireLen)
}

// record lands one selected sample in its time bucket.
func (e *RateEstimator) record(t units.Time, _ packet.FlowKey, wireLen int) {
	b := e.bucket(&e.ports[e.curPort], t)
	b.sampledBytes += int64(wireLen)
	b.sampledPkts++
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
			b := e.bucket(ps, now)
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
func (e *RateEstimator) bucket(ps *portState, t units.Time) *estBucket {
	id := int64(t) / int64(e.bucketDur)
	b := &ps.ring[id%estBuckets]
	if b.id != id {
		*b = estBucket{id: id}
	}
	return b
}

// window sums the live buckets of port p at time now.
func (e *RateEstimator) window(now units.Time, p int) (sum estBucket) {
	cur := int64(now) / int64(e.bucketDur)
	for i := range e.ports[p].ring {
		b := &e.ports[p].ring[i]
		if b.id > cur-estBuckets && b.id <= cur {
			sum.sampledBytes += b.sampledBytes
			sum.sampledPkts += b.sampledPkts
			sum.queuedBytes += b.queuedBytes
			sum.queuedPkts += b.queuedPkts
			sum.dropBytes += b.dropBytes
			sum.dropPkts += b.dropPkts
		}
	}
	return sum
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

// estimateFrom converts a summed window into an Estimate.
func (e *RateEstimator) estimateFrom(w estBucket) Estimate {
	est := Estimate{
		Admitted: units.RateOf(w.queuedBytes, EstimatorWindow),
		Dropped:  units.RateOf(w.dropBytes, EstimatorWindow),
		Samples:  w.queuedPkts + w.dropPkts,
	}
	offered := w.queuedBytes + w.dropBytes
	if offered > 0 {
		est.Offered = units.RateOf(offered, EstimatorWindow)
		est.Effective = float64(w.queuedBytes) / float64(offered)
		est.Confidence = confidence(est.Samples)
		return est
	}
	// Mirror counters frozen: cross-reference the sFlow side. Traffic
	// without mirror copies means the tap is shed (or dead) — effective
	// rate zero; no traffic anywhere means there is nothing to sample.
	sflowBytes := w.sampledBytes * int64(e.cfg.SFlow.SampleRate)
	est.Offered = units.RateOf(sflowBytes, EstimatorWindow)
	if sflowBytes > 0 {
		est.Effective = 0
		est.Confidence = confidence(w.sampledPkts)
	} else {
		est.Effective = 1
		est.Confidence = 0
	}
	return est
}

// Estimate returns port p's effective sampling-rate estimate at now.
func (e *RateEstimator) Estimate(now units.Time, p int) Estimate {
	if p < 0 || p >= len(e.ports) {
		return Estimate{Effective: 1}
	}
	return e.estimateFrom(e.window(now, p))
}

// Aggregate returns the switch-wide estimate at now: the union of
// every port's window, i.e. the monitor port's view of its whole feed.
func (e *RateEstimator) Aggregate(now units.Time) Estimate {
	var sum estBucket
	for p := range e.ports {
		w := e.window(now, p)
		sum.sampledBytes += w.sampledBytes
		sum.sampledPkts += w.sampledPkts
		sum.queuedBytes += w.queuedBytes
		sum.queuedPkts += w.queuedPkts
		sum.dropBytes += w.dropBytes
		sum.dropPkts += w.dropPkts
	}
	return e.estimateFrom(sum)
}
