package experiments

import (
	"fmt"

	"planck/internal/core"
	"planck/internal/lab"
	"planck/internal/stats"
	"planck/internal/te"
	"planck/internal/topo"
	"planck/internal/units"
)

// Ablations varies, one at a time, the design choices DESIGN.md §5
// calls out and renders what each variant measures:
//
//   - the burst estimator against the 200 µs rolling average it
//     replaces: the standard deviation of each one's readings over the
//     slow-start window (200–1500 µs) of Fig. 10's flow;
//   - default against minimal monitor-port buffering: median §5.2
//     sample latency on the G8264;
//   - the number of shadow-MAC alternate trees PlanckTE may use (1/2/4);
//   - PlanckTE's flow timeout (1/3/10 ms);
//   - ARP against OpenFlow actuation;
//   - the collector's congestion threshold (50/90 %).
//
// The last four report the average flow goodput of a 20 MiB stride(8)
// run on the 16-host fat tree with PlanckTE attached.
func Ablations(seed int64) *Table {
	t := &Table{
		Title:   "Ablations (DESIGN.md §5)",
		Columns: []string{"ablation", "variant", "result"},
	}

	lo := units.Time(200 * units.Microsecond)
	hi := units.Time(1500 * units.Microsecond)
	var roll, planck stats.Sample
	for _, pt := range Fig10(Fig10Params{Seed: seed}) {
		if pt.Time < lo || pt.Time > hi {
			continue
		}
		roll.Add(pt.Rolling.Gigabits())
		planck.Add(pt.Planck.Gigabits())
	}
	t.AddRow("estimator", "rolling 200µs", fmt.Sprintf("stddev %.2f Gbps", roll.Stddev()))
	t.AddRow("estimator", "planck burst", fmt.Sprintf("stddev %.2f Gbps", planck.Stddev()))

	for _, minBuf := range []bool{false, true} {
		name := "default"
		if minBuf {
			name = "minbuffer"
		}
		r := SampleLatency(SampleLatencyParams{Kind: SwitchG8264, MinBuffer: minBuf, Seed: seed})
		t.AddRow("mirror buffer", name, fmt.Sprintf("median %.0f µs", r.Samples.Median()))
	}

	goodput := func(g float64) string { return fmt.Sprintf("avg %.2f Gbps", g) }
	fatTree := func() lab.Options {
		return lab.Options{Net: topo.FatTree16(units.Rate10G), Mirror: true, Seed: seed}
	}
	for _, trees := range []int{1, 2, 4} {
		// Constrain the initial assignment to the first trees trees and
		// let TE choose among the same subset by overriding NumTrees.
		opts := fatTree()
		restricted := *opts.Net
		restricted.NumTrees = trees
		opts.Net = &restricted
		opts.InitialTrees = make([]int, 16)
		for i := range opts.InitialTrees {
			opts.InitialTrees[i] = int(seed+int64(i)) % trees
		}
		t.AddRow("alt paths", fmt.Sprintf("%d-tree", trees), goodput(ablationStride(opts, te.DefaultPlanckTEConfig())))
	}
	for _, ms := range []int{1, 3, 10} {
		cfg := te.DefaultPlanckTEConfig()
		cfg.FlowTimeout = units.Duration(ms) * units.Millisecond
		t.AddRow("flow timeout", fmt.Sprintf("%d ms", ms), goodput(ablationStride(fatTree(), cfg)))
	}
	for _, act := range []te.Actuator{te.ActuateARP, te.ActuateOpenFlow} {
		name := "arp"
		if act == te.ActuateOpenFlow {
			name = "openflow"
		}
		cfg := te.DefaultPlanckTEConfig()
		cfg.Actuate = act
		t.AddRow("actuator", name, goodput(ablationStride(fatTree(), cfg)))
	}
	for _, th := range []float64{0.5, 0.9} {
		opts := fatTree()
		opts.CollectorConfig = core.Config{UtilThreshold: th}
		t.AddRow("threshold", fmt.Sprintf("%.0f%%", th*100), goodput(ablationStride(opts, te.DefaultPlanckTEConfig())))
	}
	return t
}

// ablationStride builds a lab from opts, attaches PlanckTE with cfg,
// runs a 20 MiB stride(8) workload and returns the average flow goodput
// in Gbps.
func ablationStride(opts lab.Options, cfg te.PlanckTEConfig) float64 {
	l := mustLab(opts)
	te.NewPlanckTE(l.Ctrl, cfg)
	res := RunWorkloadOn(l, WorkloadStride, 20<<20, opts.Seed, 10*units.Duration(units.Second))
	return res.AvgGoodput().Gigabits()
}
