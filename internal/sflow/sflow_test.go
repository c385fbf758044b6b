package sflow

import (
	"math"
	"math/rand"
	"testing"

	"planck/internal/packet"
	"planck/internal/units"
)

var key = packet.FlowKey{
	SrcIP: packet.IPv4{10, 0, 0, 1}, DstIP: packet.IPv4{10, 0, 0, 2},
	SrcPort: 1, DstPort: 2, Proto: packet.IPProtocolTCP,
}

func TestErrorModel(t *testing.T) {
	// §2.1: 300 samples over one second give ≈11% error.
	if got := estimateErrorPct(300); math.Abs(got-11.3) > 0.2 {
		t.Fatalf("error at 300 samples = %.2f%%", got)
	}
	if got := samplesForErrorPct(11.3); got < 295 || got > 305 {
		t.Fatalf("samples for 11.3%% = %d", got)
	}
	if !math.IsInf(estimateErrorPct(0), 1) {
		t.Fatal("zero samples should be infinite error")
	}
}

func TestTimeToError(t *testing.T) {
	// To reach ~5% at 300 samples/s the collector must wait ≈5 s
	// ((196/5)^2 ≈ 1537 samples) — Planck's whole motivation.
	d := timeToError(5, 300)
	if d < 4900*units.Millisecond || d > 5400*units.Millisecond {
		t.Fatalf("time to 5%% = %v", d)
	}
}

func TestSamplerSelectsRoughlyOneInN(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var got int64
	cfg := Config{SampleRate: 64, ControlPlaneCap: 1e12}
	s := NewSampler(cfg, rng, func(units.Time, packet.FlowKey, int) { got++ })
	const n = 200000
	for i := 0; i < n; i++ {
		s.Observe(units.Time(i*1000), key, 1500)
	}
	want := float64(n) / 64
	if f := float64(got); f < want*0.9 || f > want*1.1 {
		t.Fatalf("sampled %d, want ≈%.0f", got, want)
	}
}

func TestControlPlaneCap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var got int64
	s := NewSampler(Config{SampleRate: 2, ControlPlaneCap: 300}, rng,
		func(units.Time, packet.FlowKey, int) { got++ })
	// One simulated second of 1M offered packets: selection picks ~500k,
	// but the CPU can push only ~300 (+ the initial bucket).
	for i := 0; i < 1_000_000; i++ {
		s.Observe(units.Time(i*1000), key, 1500)
	}
	if got > 700 {
		t.Fatalf("CPU cap leaked: %d samples", got)
	}
	if s.Suppressed == 0 {
		t.Fatal("nothing suppressed")
	}
}

// TestPlanckVsSFlowLatency quantifies Table 1's core comparison: with the
// control-plane cap, sFlow needs ~1 s to reach ~11% error, while Planck's
// sequence-number estimator is exact after one 200–700 µs window.
func TestPlanckVsSFlowLatency(t *testing.T) {
	window := timeToError(11.3, 300)
	if window < 900*units.Millisecond || window > 1100*units.Millisecond {
		t.Fatalf("sFlow window %v, want ≈1 s", window)
	}
	planck := 700 * units.Microsecond
	if ratio := float64(window) / float64(planck); ratio < 1000 {
		t.Fatalf("speedup only %.0fx", ratio)
	}
}

// estimateErrorPct returns the §2.1 rule-of-thumb percentage error of an
// sFlow throughput estimate built from s samples.
func estimateErrorPct(s int64) float64 {
	if s <= 0 {
		return math.Inf(1)
	}
	return 196 * math.Sqrt(1/float64(s))
}

// samplesForErrorPct inverts estimateErrorPct: how many samples a target
// error requires.
func samplesForErrorPct(pct float64) int64 {
	if pct <= 0 {
		return math.MaxInt64
	}
	s := 196 / pct
	return int64(math.Ceil(s * s))
}

// timeToError returns how long a collector must aggregate to reach the
// target error at a given sample rate — the "seconds or more" latency of
// §2.1/Table 1.
func timeToError(pct float64, samplesPerSecond float64) units.Duration {
	if samplesPerSecond <= 0 {
		return units.Duration(math.MaxInt64)
	}
	need := float64(samplesForErrorPct(pct))
	return units.Duration(need / samplesPerSecond * float64(units.Second))
}
