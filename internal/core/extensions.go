package core

import (
	"planck/internal/units"
)

// This file implements two estimator extensions the paper sketches as
// future work in §3.2.2:
//
//   - retransmission-rate inference "based on the number of duplicate
//     TCP sequence numbers" the collector sees, compensating for the
//     unknown sampling rate with the sequence stream itself;
//   - throughput estimation for non-TCP traffic whose sequence numbers
//     count packets rather than bytes ("they need to be multiplied by
//     the average packet size seen in samples").

// RetransmitEstimator infers a flow's retransmission rate from sampled
// sequence regressions. The unknown, load-dependent sampling probability
// is recovered from the stream itself: over a window, the collector saw
// sampledNewBytes of fresh payload while the sequence numbers advanced by
// streamBytes, so p ≈ sampledNewBytes/streamBytes, and the true
// retransmitted volume is regressedSampledBytes / p.
//
// An inherent limitation of duplicate-counting (the paper's sketch shares
// it): a retransmission is only recognizable when its sequence number
// falls below the last *sampled* in-order offset. At sampling probability
// p that offset lags the stream head by ~1/p packets, so retransmissions
// of very recent segments go undetected and the estimate is a lower
// bound — exact at 100% sampling, roughly halved when the sampling gap
// matches the retransmission distance.
type RetransmitEstimator struct {
	startT  units.Time
	lastT   units.Time
	started bool

	sampledNew int64 // fresh payload bytes in samples
	regressed  int64 // payload bytes of regressed (dup/reordered) samples
	streamAdv  int64 // sequence advance across the observation period
	lastStream int64
}

// Observe folds in one sample: its payload length, whether its sequence
// regressed, and the estimator's current stream offset.
func (r *RetransmitEstimator) Observe(t units.Time, payload int, regressed bool, streamBytes int64) {
	if !r.started {
		r.started = true
		r.startT = t
		r.lastStream = streamBytes
	}
	r.lastT = t
	if regressed {
		r.regressed += int64(payload)
	} else {
		r.sampledNew += int64(payload)
	}
	if streamBytes > r.lastStream {
		r.streamAdv += streamBytes - r.lastStream
		r.lastStream = streamBytes
	}
}

// SamplingProbability estimates the effective mirror sampling rate.
func (r *RetransmitEstimator) SamplingProbability() (float64, bool) {
	if r.streamAdv <= 0 || r.sampledNew <= 0 {
		return 0, false
	}
	p := float64(r.sampledNew) / float64(r.streamAdv)
	if p > 1 {
		p = 1
	}
	return p, true
}

// Rate estimates the flow's retransmission rate in bits per second over
// the whole observation period.
func (r *RetransmitEstimator) Rate() (units.Rate, bool) {
	p, ok := r.SamplingProbability()
	if !ok || p == 0 {
		return 0, false
	}
	dur := r.lastT.Sub(r.startT)
	if dur <= 0 {
		return 0, false
	}
	trueRegressed := float64(r.regressed) / p
	return units.Rate(trueRegressed * 8 / dur.Seconds()), true
}

// PacketSeqEstimator estimates throughput for flows whose sequence
// numbers count packets (§3.2.2's generalization): the sequence delta
// across a burst window is multiplied by the running average sampled
// packet size.
type PacketSeqEstimator struct {
	Est RateEstimator

	sampledBytes int64
	sampledPkts  int64
}

// Observe folds in a sample carrying packet-sequence seq and wireLen
// bytes on the wire.
func (p *PacketSeqEstimator) Observe(t units.Time, seq uint32, wireLen int) bool {
	p.sampledBytes += int64(wireLen)
	p.sampledPkts++
	return p.Est.Observe(t, seq)
}

// MeanPacketSize returns the running average sampled size.
func (p *PacketSeqEstimator) MeanPacketSize() float64 {
	if p.sampledPkts == 0 {
		return 0
	}
	return float64(p.sampledBytes) / float64(p.sampledPkts)
}

// Rate returns the estimated throughput: packet-rate x mean size.
func (p *PacketSeqEstimator) Rate() (units.Rate, units.Time, bool) {
	r, at, ok := p.Est.Rate()
	if !ok {
		return 0, 0, false
	}
	// The inner estimator computed (packets * 8) / duration; scale the
	// "byte" units it assumed (1 per packet) by the mean packet size.
	return units.Rate(float64(r) * p.MeanPacketSize()), at, ok
}
