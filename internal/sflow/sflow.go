// Package sflow models the sampling pipeline Planck replaces (§2.1): a
// switch samples one-in-N packets, attaches metadata, and forwards the
// samples through its control-plane CPU, which caps the achievable rate
// (~300 samples/s on the paper's IBM G8264). A collector estimates flow
// and link rates by multiplying sampled counts by N — accurate only when
// aggregated over long windows, which is exactly the latency wall
// motivating Planck. The package's tests check the standard error model
// the paper quotes: the relative error of a throughput estimate from s
// samples is ≈ 196 * sqrt(1/s) percent (at 95% confidence).
package sflow

import (
	"math/rand"

	"planck/internal/packet"
	"planck/internal/units"
)

// Config models a switch's sFlow pipeline.
type Config struct {
	// SampleRate is N in one-in-N sampling.
	SampleRate int
	// ControlPlaneCap bounds samples per second through the switch CPU
	// (the G8264 manages ~300/s, §2.1).
	ControlPlaneCap float64
}

// DefaultG8264 reflects the paper's measurements.
func DefaultG8264() Config {
	return Config{SampleRate: 1024, ControlPlaneCap: 300}
}

// Sampler applies one-in-N selection and the control-plane cap. It is
// driven with packet observations (timestamp + flow key + bytes) and
// delivers the samples that pass to its output.
type Sampler struct {
	cfg Config
	rng *rand.Rand

	// token bucket for the CPU cap
	tokens  float64
	lastRef units.Time

	// Sampled and Suppressed count selected packets that passed or hit
	// the CPU cap.
	Sampled    int64
	Suppressed int64

	out func(t units.Time, key packet.FlowKey, wireLen int)
}

// NewSampler builds a sampler delivering samples to out.
func NewSampler(cfg Config, rng *rand.Rand, out func(t units.Time, key packet.FlowKey, wireLen int)) *Sampler {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 1024
	}
	if cfg.ControlPlaneCap <= 0 {
		cfg.ControlPlaneCap = 300
	}
	return &Sampler{cfg: cfg, rng: rng, tokens: cfg.ControlPlaneCap, out: out}
}

// Observe offers one forwarded packet to the sampler.
func (s *Sampler) Observe(t units.Time, key packet.FlowKey, wireLen int) {
	if s.rng.Intn(s.cfg.SampleRate) != 0 {
		return
	}
	// Refill the CPU token bucket.
	if t > s.lastRef {
		s.tokens += t.Sub(s.lastRef).Seconds() * s.cfg.ControlPlaneCap
		if s.tokens > s.cfg.ControlPlaneCap {
			s.tokens = s.cfg.ControlPlaneCap
		}
		s.lastRef = t
	}
	if s.tokens < 1 {
		s.Suppressed++
		return
	}
	s.tokens--
	s.Sampled++
	s.out(t, key, wireLen)
}
