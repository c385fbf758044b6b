package experiments

import (
	"fmt"

	"planck/internal/core"
	"planck/internal/obs"
	"planck/internal/topo"
	"planck/internal/units"
)

// SampleLatencyParams configures the §5.2 undersubscribed measurement.
type SampleLatencyParams struct {
	Kind      SwitchKind
	MinBuffer bool
	Duration  units.Duration
	Seed      int64
}

// SampleLatencyResult reports the distribution of send-to-collector
// latency in microseconds.
type SampleLatencyResult struct {
	Kind    SwitchKind
	Samples *obs.Histogram
}

// SampleLatency reproduces §5.2: an otherwise idle network with light
// traffic, measuring the time from the sender's stamp to collector
// delivery. Paper: 75–150 µs at 10 Gbps, 80–450 µs at 1 Gbps.
func SampleLatency(p SampleLatencyParams) *SampleLatencyResult {
	if p.Duration == 0 {
		p.Duration = 100 * units.Millisecond
	}
	l := mustLab(microLabOptions(p.Kind, 4, p.MinBuffer, p.Seed))
	// A light CBR flow: far below the monitor rate, so no queueing.
	rate := p.Kind.Rate() / 10
	if _, err := l.Hosts[0].StartCBR(0, topo.HostIP(1), 7000, 1000, rate, 1); err != nil {
		panic(err)
	}
	l.Run(p.Duration)
	return &SampleLatencyResult{Kind: p.Kind, Samples: l.Collectors[0].SampleLatency}
}

// Fig8Params configures the congested-mirror latency CDF.
type Fig8Params struct {
	Duration units.Duration
	Seed     int64
}

// Fig8Result holds one latency CDF per switch kind (µs).
type Fig8Result struct {
	Latency map[SwitchKind]*obs.Histogram
}

// Fig8 reproduces Figure 8: three hosts send saturated TCP traffic to
// unique destinations, oversubscribing the monitor port ~3x; the CDF of
// sample latency shows the mirror buffering. Paper medians: ≈3.5 ms at
// 10 Gbps, just over 6 ms at 1 Gbps.
func Fig8(p Fig8Params) *Fig8Result {
	if p.Duration == 0 {
		p.Duration = 300 * units.Millisecond
	}
	res := &Fig8Result{Latency: make(map[SwitchKind]*obs.Histogram)}
	for _, kind := range []SwitchKind{SwitchG8264, SwitchPronto3290} {
		l := mustLab(microLabOptions(kind, 6, false, p.Seed))
		for i := 0; i < 3; i++ {
			// Effectively unbounded flows; the run is time-limited.
			if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(i+3), 5001, 1<<40, int32(i)); err != nil {
				panic(err)
			}
		}
		l.Run(p.Duration)
		res.Latency[kind] = l.Collectors[0].SampleLatency
	}
	return res
}

// Table renders the Fig. 8 summary.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:   "Figure 8: sample latency under congestion (CDF summary, µs)",
		Columns: []string{"switch", "p10", "median", "p90", "p99"},
	}
	for _, kind := range []SwitchKind{SwitchG8264, SwitchPronto3290} {
		s := r.Latency[kind]
		t.AddRow(kind.String(),
			fmt.Sprintf("%.0f", s.Quantile(0.10)),
			fmt.Sprintf("%.0f", s.Median()),
			fmt.Sprintf("%.0f", s.Quantile(0.90)),
			fmt.Sprintf("%.0f", s.Quantile(0.99)))
	}
	return t
}

// Fig9Params configures the oversubscription sweep.
type Fig9Params struct {
	Factors  []int // oversubscription factors (source host counts)
	Duration units.Duration
	Seed     int64
}

// Fig9Point is one sweep measurement.
type Fig9Point struct {
	Factor      float64
	MeanLatency units.Duration
}

// Fig9 reproduces Figure 9: mean sample latency versus oversubscription
// factor on the 10 Gbps switch. The paper observes a roughly constant
// ≈3.5 ms, implying a fixed firmware allocation for the monitor port.
func Fig9(p Fig9Params) []Fig9Point {
	if len(p.Factors) == 0 {
		p.Factors = []int{1, 2, 4, 8, 12, 16}
	}
	if p.Duration == 0 {
		p.Duration = 150 * units.Millisecond
	}
	var out []Fig9Point
	for _, f := range p.Factors {
		hosts := 2 * f
		l := mustLab(microLabOptions(SwitchG8264, hosts, false, p.Seed))
		for i := 0; i < f; i++ {
			if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(i+f), 5001, 1<<40, int32(i)); err != nil {
				panic(err)
			}
		}
		l.Run(p.Duration)
		s := l.Collectors[0].SampleLatency
		// Ignore the ramp-up: use the median-and-above half to represent
		// steady state... mean of all samples, as the paper plots.
		out = append(out, Fig9Point{
			Factor:      float64(f) * 0.95, // TCP goodput ≈ 9.5/10 of line rate
			MeanLatency: units.Duration(s.Mean() * float64(units.Microsecond)),
		})
	}
	return out
}

// Fig9Table renders the sweep.
func Fig9Table(points []Fig9Point) *Table {
	t := &Table{
		Title:   "Figure 9: sample latency vs oversubscription factor (10 Gbps)",
		Columns: []string{"factor", "mean latency"},
	}
	for _, pt := range points {
		t.AddRow(fmt.Sprintf("%.1fx", pt.Factor), pt.MeanLatency.String())
	}
	return t
}

// Fig12Result is the latency breakdown timeline of Figure 12.
type Fig12Result struct {
	SampleMin, SampleMax units.Duration // sender stamp -> collector (minbuffer)
	BufferedMedian       units.Duration // with default mirror buffering
	EstimateMin          units.Duration // rate-estimation window bounds
	EstimateMax          units.Duration
}

// Fig12 composes the breakdown from the §5.2 run (minbuffer sample
// path), the Fig. 8 run (buffered path), and the estimator constants.
// Paper (10 Gbps): sample 75–150 µs minbuffer / 2.5–3.5 ms buffered,
// estimate 200–700 µs, total 275–850 µs (minbuffer).
func Fig12(seed int64) *Fig12Result {
	sl := SampleLatency(SampleLatencyParams{Kind: SwitchG8264, MinBuffer: true, Seed: seed})
	f8 := Fig8(Fig8Params{Duration: 150 * units.Millisecond, Seed: seed})
	us := float64(units.Microsecond)
	return &Fig12Result{
		SampleMin:      units.Duration(sl.Samples.Quantile(0.01) * us),
		SampleMax:      units.Duration(sl.Samples.Quantile(0.99) * us),
		BufferedMedian: units.Duration(f8.Latency[SwitchG8264].Median() * us),
		EstimateMin:    core.MinGap,
		EstimateMax:    core.MaxBurst,
	}
}

// Table renders the breakdown.
func (r *Fig12Result) Table() *Table {
	t := &Table{
		Title:   "Figure 12: measurement latency breakdown (10 Gbps)",
		Columns: []string{"interval", "measured"},
	}
	t.AddRow("packet sent -> collector (minbuffer)",
		fmt.Sprintf("%v–%v", r.SampleMin, r.SampleMax))
	t.AddRow("packet sent -> collector (default buffer, median)", r.BufferedMedian.String())
	t.AddRow("collector -> stable rate estimate",
		fmt.Sprintf("%v–%v", r.EstimateMin, r.EstimateMax))
	t.AddRow("total (minbuffer)",
		fmt.Sprintf("%v–%v", r.SampleMin+r.EstimateMin, r.SampleMax+r.EstimateMax))
	return t
}

// Table1Row is one measurement-system comparison row.
type Table1Row struct {
	System   string
	Min, Max units.Duration
	Measured bool // false for literature constants
}

// Table1Result is the full comparison.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 reproduces Table 1: Planck's measurement speed (sample latency
// plus rate-estimation delay) on both switches, with and without monitor
// buffering, against the reported latencies of prior systems.
func Table1(seed int64) *Table1Result {
	res := &Table1Result{}
	add := func(name string, min, max units.Duration, measured bool) {
		res.Rows = append(res.Rows, Table1Row{System: name, Min: min, Max: max, Measured: measured})
	}
	us := float64(units.Microsecond)

	for _, cfg := range []struct {
		kind SwitchKind
		name string
	}{
		{SwitchG8264, "Planck 10Gbps minbuffer"},
		{SwitchPronto3290, "Planck 1Gbps minbuffer"},
	} {
		sl := SampleLatency(SampleLatencyParams{Kind: cfg.kind, MinBuffer: true, Seed: seed})
		add(cfg.name,
			units.Duration(sl.Samples.Quantile(0.01)*us)+core.MinGap,
			units.Duration(sl.Samples.Quantile(0.99)*us)+core.MaxBurst,
			true)
	}

	f8 := Fig8(Fig8Params{Seed: seed})
	for _, cfg := range []struct {
		kind SwitchKind
		name string
	}{
		{SwitchG8264, "Planck 10Gbps"},
		{SwitchPronto3290, "Planck 1Gbps"},
	} {
		worst := units.Duration(f8.Latency[cfg.kind].Quantile(0.999)*us) + core.MaxBurst
		add(cfg.name, 0, worst, true)
	}

	// Literature constants from Table 1.
	ms := units.Millisecond
	add("Helios", 77*ms+400*units.Microsecond, 77*ms+400*units.Microsecond, false)
	add("sFlow/OpenSample", 100*ms, 100*ms, false)
	add("Mahout Polling", 190*ms, 190*ms, false)
	add("DevoFlow Polling", 500*ms, 15000*ms, false)
	add("Hedera", 5000*ms, 5000*ms, false)
	return res
}

// Table renders the comparison with slowdowns relative to the measured
// worst-case Planck 10 Gbps row, as the paper does.
func (r *Table1Result) Table() *Table {
	t := &Table{
		Title:   "Table 1: measurement speed vs prior systems",
		Columns: []string{"system", "speed", "slowdown vs 10Gbps Planck", "source"},
	}
	var baseline units.Duration
	for _, row := range r.Rows {
		if row.System == "Planck 10Gbps" {
			baseline = row.Max
		}
	}
	for _, row := range r.Rows {
		var speed string
		if row.Min == 0 || row.Min == row.Max {
			speed = fmt.Sprintf("< %v", row.Max)
		} else {
			speed = fmt.Sprintf("%v–%v", row.Min, row.Max)
		}
		slow := float64(row.Max) / float64(baseline)
		var slowStr string
		if slow >= 1 {
			slowStr = fmt.Sprintf("%.0fx", slow)
		} else {
			slowStr = fmt.Sprintf("1/%.0fx", 1/slow)
		}
		src := "reported"
		if row.Measured {
			src = "measured"
		}
		t.AddRow(row.System, speed, slowStr, src)
	}
	return t
}
