package experiments

import (
	"math"
	"testing"

	"planck/internal/units"
)

func TestSampleLatency10G(t *testing.T) {
	r := SampleLatency(SampleLatencyParams{Kind: SwitchG8264, Seed: 1})
	if r.Samples.N() < 100 {
		t.Fatalf("samples %d", r.Samples.N())
	}
	med := r.Samples.Median()
	// Paper: 75–150 µs.
	if med < 60 || med > 180 {
		t.Fatalf("median %.0f µs", med)
	}
	if hi := r.Samples.Quantile(0.99); hi > 250 {
		t.Fatalf("p99 %.0f µs", hi)
	}
}

func TestSampleLatency1G(t *testing.T) {
	r := SampleLatency(SampleLatencyParams{Kind: SwitchPronto3290, Seed: 1})
	med := r.Samples.Median()
	// Paper: 80–450 µs; the median sits in the middle of that band.
	if med < 100 || med > 450 {
		t.Fatalf("median %.0f µs", med)
	}
	if lo := r.Samples.Quantile(0.02); lo < 60 {
		t.Fatalf("p2 %.0f µs", lo)
	}
	if hi := r.Samples.Quantile(0.98); hi > 550 {
		t.Fatalf("p98 %.0f µs", hi)
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8(Fig8Params{Seed: 2})
	med10 := r.Latency[SwitchG8264].Median()
	med1 := r.Latency[SwitchPronto3290].Median()
	// Paper: ≈3.5 ms at 10 Gbps and just over 6 ms at 1 Gbps.
	if med10 < 2500 || med10 > 4500 {
		t.Fatalf("10G median %.0f µs, want ≈3500", med10)
	}
	if med1 < 4500 || med1 > 8000 {
		t.Fatalf("1G median %.0f µs, want ≈6000", med1)
	}
	if med1 < med10 {
		t.Fatal("1G should buffer longer than 10G")
	}
	t.Logf("Fig8 medians: 10G=%.0fµs 1G=%.0fµs", med10, med1)
}

func TestFig9Flat(t *testing.T) {
	pts := Fig9(Fig9Params{Factors: []int{2, 4, 8}, Seed: 3})
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// The paper's observation: latency is roughly constant in the
	// oversubscription factor (fixed mirror allocation).
	lo, hi := pts[0].MeanLatency, pts[0].MeanLatency
	for _, p := range pts {
		if p.MeanLatency < lo {
			lo = p.MeanLatency
		}
		if p.MeanLatency > hi {
			hi = p.MeanLatency
		}
	}
	if float64(hi) > 1.5*float64(lo) {
		t.Fatalf("latency not flat: %v .. %v", lo, hi)
	}
	if lo < units.Duration(1500*units.Microsecond) || hi > units.Duration(4500*units.Microsecond) {
		t.Fatalf("latency out of Fig 9 band: %v .. %v", lo, hi)
	}
	t.Logf("Fig9: %v", pts)
}

func TestFig12Composition(t *testing.T) {
	r := Fig12(4)
	// Paper: 75–150 µs sample path (minbuffer), 200–700 µs estimation,
	// total 275–850 µs.
	if r.SampleMin < 50*units.Microsecond || r.SampleMax > 250*units.Microsecond {
		t.Fatalf("sample path %v–%v", r.SampleMin, r.SampleMax)
	}
	if r.EstimateMin != 200*units.Microsecond || r.EstimateMax != 700*units.Microsecond {
		t.Fatalf("estimate window %v–%v", r.EstimateMin, r.EstimateMax)
	}
	total := r.SampleMax + r.EstimateMax
	if total > 1100*units.Microsecond {
		t.Fatalf("total %v, want <= ~850µs scale", total)
	}
	t.Logf("%s", r.Table().Render())
}

func TestTable1Shape(t *testing.T) {
	r := Table1(5)
	tab := r.Table()
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	var planck10Max, heliosMax units.Duration
	for _, row := range r.Rows {
		switch row.System {
		case "Planck 10Gbps":
			planck10Max = row.Max
		case "Helios":
			heliosMax = row.Max
		}
	}
	if planck10Max == 0 || heliosMax == 0 {
		t.Fatal("missing rows")
	}
	// Paper: Planck is 11–18x faster than Helios (worst-case measured).
	speedup := float64(heliosMax) / float64(planck10Max)
	if speedup < 8 || speedup > 40 {
		t.Fatalf("speedup vs Helios %.1fx, want ~18x", speedup)
	}
	// Planck worst case should be ~4-5 ms at 10G.
	if planck10Max < 2*units.Millisecond || planck10Max > 7*units.Millisecond {
		t.Fatalf("Planck 10G worst case %v", planck10Max)
	}
	t.Logf("\n%s", tab.Render())
}

// The §2.1 error model behind Table 1's sFlow row: the relative error of
// a throughput estimate from s one-in-N samples is ≈ 196·sqrt(1/s)
// percent (at 95% confidence), and the switch CPU caps samples at ~300/s.

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
