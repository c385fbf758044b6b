// Package-level benchmarks: one testing.B target per table and figure in
// the paper's evaluation, plus ablations of the design choices DESIGN.md
// calls out. Benchmarks report experiment outcomes through b.ReportMetric
// so `go test -bench` output doubles as a results table; heavier grids
// live in cmd/planck-bench.
package planck

import (
	"testing"

	"planck/internal/experiments"
	"planck/internal/lab"
	"planck/internal/stats"
	"planck/internal/te"
	"planck/internal/topo"
	"planck/internal/units"
	"planck/internal/workload"
)

// BenchmarkTable1 regenerates the measurement-speed comparison.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(int64(i) + 1)
		for _, row := range r.Rows {
			if row.System == "Planck 10Gbps" {
				b.ReportMetric(row.Max.Milliseconds(), "planck10G-worst-ms")
			}
		}
	}
}

// BenchmarkSampleLatency covers §5.2 (and the minbuffer rows of Table 1).
func BenchmarkSampleLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SampleLatency(experiments.SampleLatencyParams{
			Kind: experiments.SwitchG8264, Seed: int64(i) + 1,
		})
		b.ReportMetric(r.Samples.Median(), "median-µs")
	}
}

// BenchmarkFig2 .. BenchmarkFig4 share the congested-ports rig.
func BenchmarkFig2(b *testing.B) {
	benchMirrorImpact(b, func(p experiments.MirrorImpactPoint) (float64, string) { return p.LossPct, "loss-pct" })
}
func BenchmarkFig3(b *testing.B) {
	benchMirrorImpact(b, func(p experiments.MirrorImpactPoint) (float64, string) { return p.LatMedian, "lat-p50-µs" })
}
func BenchmarkFig4(b *testing.B) {
	benchMirrorImpact(b, func(p experiments.MirrorImpactPoint) (float64, string) { return p.TputMedian, "tput-p50-gbps" })
}

func benchMirrorImpact(b *testing.B, metric func(experiments.MirrorImpactPoint) (float64, string)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		pts := experiments.MirrorImpact(experiments.MirrorImpactParams{
			Ports: []int{3}, Runs: 1, Seed: int64(i) + 1,
			Warmup: 100 * units.Millisecond, Duration: 200 * units.Millisecond,
		})
		for _, p := range pts {
			if p.Mirror {
				v, name := metric(p)
				b.ReportMetric(v, name)
			}
		}
	}
}

// BenchmarkFig5 / 6 / 7: sample-stream characteristics.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SampleStream(experiments.SampleStreamParams{
			Flows: 13, Duration: 60 * units.Millisecond, Seed: int64(i) + 1,
		})
		b.ReportMetric(r.BurstMTUs.FractionAtOrBelow(1.0), "burst<=1mtu-frac")
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.Fig6Sweep([]int{4, 8, 12}, 40*units.Millisecond, int64(i)+1)
		b.ReportMetric(rs[len(rs)-1].InterarrivalMTUs.Mean(), "interarrival-12flows-mtus")
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SampleStream(experiments.SampleStreamParams{
			Flows: 13, Duration: 60 * units.Millisecond, Seed: int64(i) + 1,
		})
		b.ReportMetric(r.InterarrivalMTUs.FractionAtOrBelow(13), "interarrival<=13mtu-frac")
	}
}

// BenchmarkFig8: congested sample-latency CDF medians.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(experiments.Fig8Params{Seed: int64(i) + 1, Duration: 200 * units.Millisecond})
		b.ReportMetric(r.Latency[experiments.SwitchG8264].Median()/1000, "median-10G-ms")
		b.ReportMetric(r.Latency[experiments.SwitchPronto3290].Median()/1000, "median-1G-ms")
	}
}

// BenchmarkFig9: flat latency across oversubscription factors.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig9(experiments.Fig9Params{
			Factors: []int{2, 8}, Duration: 100 * units.Millisecond, Seed: int64(i) + 1,
		})
		b.ReportMetric(pts[len(pts)-1].MeanLatency.Milliseconds(), "mean-at-8x-ms")
	}
}

// BenchmarkFig10: estimator smoothness contrast.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig10(experiments.Fig10Params{Seed: int64(i) + 1})
		var rollMax float64
		for _, pt := range series {
			if g := pt.Rolling.Gigabits(); g > rollMax {
				rollMax = g
			}
		}
		b.ReportMetric(rollMax, "rolling-max-gbps")
	}
}

// BenchmarkFig11: estimation error.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig11(experiments.Fig11Params{
			Factors: []int{8}, Duration: 60 * units.Millisecond, Seed: int64(i) + 1,
		})
		b.ReportMetric(pts[0].MeanError*100, "error-pct")
	}
}

// BenchmarkFig12: latency breakdown totals.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(int64(i) + 1)
		b.ReportMetric((r.SampleMax + r.EstimateMax).Microseconds(), "total-worst-µs")
	}
}

// BenchmarkFig14 runs a reduced workload grid (stride + bijection at
// 50 MiB); the full grid is cmd/planck-bench -experiment fig14.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Fig14(experiments.Fig14Params{
			Workloads: []experiments.WorkloadKind{experiments.WorkloadStride},
			Sizes:     []int64{50 << 20},
			Schemes:   []experiments.Scheme{experiments.SchemeStatic, experiments.SchemePlanckTE, experiments.SchemeOptimal},
			Runs:      1,
			Seed:      int64(i) + 1,
		})
		for _, c := range cells {
			if c.Scheme == experiments.SchemePlanckTE {
				b.ReportMetric(c.AvgGbps, "planckte-gbps")
			}
		}
	}
}

// BenchmarkFig15: control-loop latencies.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15(int64(i) + 1)
		b.ReportMetric(r.Detection.Milliseconds(), "detection-ms")
		b.ReportMetric(r.Response.Milliseconds(), "response-ms")
	}
}

// BenchmarkFig16: response-latency medians per actuator.
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16(experiments.Fig16Params{Episodes: 3, Seed: int64(i) + 1})
		b.ReportMetric(r.ARP.Median(), "arp-median-ms")
		b.ReportMetric(r.OpenFlow.Median(), "of-median-ms")
	}
}

// BenchmarkFig17: the small-flow headline point (50 MiB stride).
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Fig17(experiments.Fig17Params{
			Sizes:   []int64{50 << 20},
			Schemes: []experiments.Scheme{experiments.SchemePlanckTE, experiments.SchemeOptimal},
			Seed:    int64(i) + 1,
		})
		ratio := cells[0].AvgGbps / cells[1].AvgGbps
		b.ReportMetric(ratio, "planckte/optimal")
	}
}

// BenchmarkFig18: 100 MiB CDF medians, one scheme pair.
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig18(experiments.Fig18Params{
			Size:    20 << 20, // scaled shuffle to bound bench runtime
			Schemes: []experiments.Scheme{experiments.SchemePlanckTE},
			Seed:    int64(i) + 1,
		})
		b.ReportMetric(r.ShuffleCompletion[experiments.SchemePlanckTE].Median(), "shuffle-p50-s")
	}
}

// BenchmarkScalability: §9.1 arithmetic.
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Scalability()
		if len(tab.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationEstimator compares the burst estimator's stability
// against the rolling average it replaces (Fig. 10's design point): the
// standard deviation of each estimator's readings over the slow-start
// window, where the naive window oscillates between catching zero and
// two bursts.
func BenchmarkAblationEstimator(b *testing.B) {
	lo := units.Time(200 * units.Microsecond)
	hi := units.Time(1500 * units.Microsecond)
	for i := 0; i < b.N; i++ {
		series := experiments.Fig10(experiments.Fig10Params{Seed: int64(i) + 1})
		var roll, planck stats.Sample
		for _, pt := range series {
			if pt.Time < lo || pt.Time > hi {
				continue
			}
			roll.Add(pt.Rolling.Gigabits())
			planck.Add(pt.Planck.Gigabits())
		}
		b.ReportMetric(roll.Stddev(), "rolling-stddev-gbps")
		b.ReportMetric(planck.Stddev(), "planck-stddev-gbps")
	}
}

// BenchmarkAblationMirrorBuffer contrasts default and minimal monitor
// buffering (Table 1's minbuffer rows).
func BenchmarkAblationMirrorBuffer(b *testing.B) {
	for _, min := range []bool{false, true} {
		name := "default"
		if min {
			name = "minbuffer"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.SampleLatency(experiments.SampleLatencyParams{
					Kind: experiments.SwitchG8264, MinBuffer: min, Seed: int64(i) + 1,
				})
				b.ReportMetric(r.Samples.Median(), "median-µs")
			}
		})
	}
}

// BenchmarkAblationAltPaths varies how many shadow-MAC alternate trees
// PlanckTE may use (the paper installs four).
func BenchmarkAblationAltPaths(b *testing.B) {
	for _, trees := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "1tree", 2: "2trees", 4: "4trees"}[trees], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(ablationAltPaths(trees, int64(i)+1), "avg-gbps")
			}
		})
	}
}

func ablationAltPaths(trees int, seed int64) float64 {
	net := topo.FatTree16(units.Rate10G)
	// Constrain the initial assignment to the first `trees` trees and let
	// TE choose among the same subset by overriding NumTrees.
	initial := make([]int, 16)
	rngSeed := seed
	for i := range initial {
		initial[i] = int(rngSeed+int64(i)) % trees
	}
	restricted := *net
	restricted.NumTrees = trees
	l, err := lab.New(lab.Options{Net: &restricted, Mirror: true, Seed: seed, InitialTrees: initial})
	if err != nil {
		panic(err)
	}
	te.NewPlanckTE(l.Ctrl, te.DefaultPlanckTEConfig())
	res, err := workload.Run(l, workload.Stride(16, 8, 20<<20), workload.RunConfig{
		Timeout: 10 * units.Duration(units.Second),
	})
	if err != nil {
		panic(err)
	}
	return res.AvgGoodput().Gigabits()
}

// BenchmarkAblationFlowTimeout varies PlanckTE's flow timeout (§6.2 uses
// 3 ms).
func BenchmarkAblationFlowTimeout(b *testing.B) {
	for _, ms := range []int{1, 3, 10} {
		b.Run(map[int]string{1: "1ms", 3: "3ms", 10: "10ms"}[ms], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := te.DefaultPlanckTEConfig()
				cfg.FlowTimeout = units.Duration(ms) * units.Millisecond
				b.ReportMetric(ablationTECfg(cfg, int64(i)+1), "avg-gbps")
			}
		})
	}
}

// BenchmarkAblationActuator compares ARP and OpenFlow actuation on the
// stride workload (Fig. 16's design point applied to Fig. 14's metric).
func BenchmarkAblationActuator(b *testing.B) {
	for _, act := range []te.Actuator{te.ActuateARP, te.ActuateOpenFlow} {
		name := "arp"
		if act == te.ActuateOpenFlow {
			name = "openflow"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := te.DefaultPlanckTEConfig()
				cfg.Actuate = act
				b.ReportMetric(ablationTECfg(cfg, int64(i)+1), "avg-gbps")
			}
		})
	}
}

func ablationTECfg(cfg te.PlanckTEConfig, seed int64) float64 {
	net := topo.FatTree16(units.Rate10G)
	l, err := lab.New(lab.Options{Net: net, Mirror: true, Seed: seed})
	if err != nil {
		panic(err)
	}
	te.NewPlanckTE(l.Ctrl, cfg)
	res, err := workload.Run(l, workload.Stride(16, 8, 20<<20), workload.RunConfig{
		Timeout: 10 * units.Duration(units.Second),
	})
	if err != nil {
		panic(err)
	}
	return res.AvgGoodput().Gigabits()
}

// BenchmarkAblationThreshold varies the collector's congestion threshold.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []float64{0.5, 0.9} {
		name := "50pct"
		if th == 0.9 {
			name = "90pct"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(ablationThreshold(th, int64(i)+1), "avg-gbps")
			}
		})
	}
}

func ablationThreshold(th float64, seed int64) float64 {
	net := topo.FatTree16(units.Rate10G)
	l, err := lab.New(lab.Options{
		Net: net, Mirror: true, Seed: seed,
		CollectorConfig: coreConfigWithThreshold(th),
	})
	if err != nil {
		panic(err)
	}
	te.NewPlanckTE(l.Ctrl, te.DefaultPlanckTEConfig())
	res, err := workload.Run(l, workload.Stride(16, 8, 20<<20), workload.RunConfig{
		Timeout: 10 * units.Duration(units.Second),
	})
	if err != nil {
		panic(err)
	}
	return res.AvgGoodput().Gigabits()
}

func coreConfigWithThreshold(th float64) CollectorConfig {
	return CollectorConfig{UtilThreshold: th}
}

// BenchmarkExtensionPrioritySampling measures the §9.2 preferential
// sampling win: SYN sample latency with the priority class on.
func BenchmarkExtensionPrioritySampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.PrioritySampling(int64(i) + 1)
		b.ReportMetric(rs[0].SYNLatencyMedian, "baseline-syn-µs")
		b.ReportMetric(rs[1].SYNLatencyMedian, "priority-syn-µs")
	}
}

// BenchmarkExtensionTargetRate measures the §9.2 target-rate proposal:
// sample latency without the mirror backlog, at unchanged accuracy.
func BenchmarkExtensionTargetRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.TargetRateMirroring(int64(i) + 1)
		b.ReportMetric(rs[0].LatencyMedian, "oversub-µs")
		b.ReportMetric(rs[1].LatencyMedian, "target-rate-µs")
		b.ReportMetric(rs[1].EstimateError*100, "target-rate-err-pct")
	}
}
