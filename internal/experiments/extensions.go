package experiments

import (
	"fmt"

	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/sim"
	"planck/internal/stats"
	"planck/internal/switchsim"
	"planck/internal/topo"
	"planck/internal/units"
)

// This file evaluates the §9.2 future-switch proposals the repository
// implements beyond the paper's testbed:
//
//   - preferential sampling of SYN/FIN/RST (flow-boundary visibility
//     under oversubscription);
//   - target-rate mirroring ("a desired rate of samples" instead of a
//     sampling rate), which removes the mirror-queue latency entirely.

// PrioritySamplingResult compares flow-boundary visibility with and
// without the §9.2 priority class.
type PrioritySamplingResult struct {
	Priority bool
	// SYNSeen is the fraction of connection-opening SYNs that reached
	// the collector.
	SYNSeen float64
	// SYNLatencyMedian is the µs latency of those SYN samples.
	SYNLatencyMedian float64
}

// PrioritySampling runs many short connections through a mirror that is
// saturated by three bulk flows, with the priority class on and off.
func PrioritySampling(seed int64) []PrioritySamplingResult {
	var out []PrioritySamplingResult
	for _, prio := range []bool{false, true} {
		out = append(out, prioritySamplingRun(prio, seed))
	}
	return out
}

func prioritySamplingRun(prio bool, seed int64) PrioritySamplingResult {
	opts := microLabOptions(SwitchG8264, 8, false, seed)
	base := opts.SwitchConfig
	opts.SwitchConfig = func(name string, ports int) switchsim.Config {
		cfg := base(name, ports)
		cfg.MirrorPriorityFlags = prio
		return cfg
	}
	l := mustLab(opts)

	// Three saturated pairs keep the mirror ~3x oversubscribed.
	for i := 0; i < 3; i++ {
		if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(i+3), 5001, 1<<40, int32(i)); err != nil {
			panic(err)
		}
	}

	// Host 6 opens a short connection to host 7 every 2 ms; each SYN is a
	// flow boundary the collector wants to see.
	var synSent int
	synLat := &stats.Sample{}
	var synSeen int
	l.Collectors[0].OnSample = func(at units.Time, pkt *sim.Packet) {
		if pkt.Kind == sim.KindTCP && pkt.TCPFlags&packet.TCPSyn != 0 &&
			pkt.TCPFlags&packet.TCPAck == 0 && pkt.SrcIP == topo.HostIP(6) {
			synSeen++
			if pkt.SentAt > 0 {
				synLat.Add(at.Sub(pkt.SentAt).Microseconds())
			}
		}
	}
	sim.NewTicker(l.Eng, 2*units.Millisecond, func(now units.Time) {
		if now > units.Time(150*units.Millisecond) {
			return
		}
		if _, err := l.Hosts[6].StartFlow(now, topo.HostIP(7), uint16(6000+synSent), 1000, 99); err == nil {
			synSent++
		}
	})

	l.Run(160 * units.Millisecond)
	res := PrioritySamplingResult{Priority: prio}
	if synSent > 0 {
		res.SYNSeen = float64(synSeen) / float64(synSent)
	}
	res.SYNLatencyMedian = synLat.Median()
	return res
}

// PrioritySamplingTable renders the comparison.
func PrioritySamplingTable(rs []PrioritySamplingResult) *Table {
	t := &Table{
		Title:   "§9.2 extension: preferential SYN sampling under 3x oversubscription",
		Columns: []string{"priority class", "SYNs sampled", "SYN sample latency p50 (µs)"},
	}
	for _, r := range rs {
		t.AddRow(fmt.Sprintf("%v", r.Priority),
			fmt.Sprintf("%.0f%%", r.SYNSeen*100),
			fmt.Sprintf("%.0f", r.SYNLatencyMedian))
	}
	return t
}

// TargetRateResult compares classic oversubscribed mirroring with the
// §9.2 target-rate proposal under the same offered load.
type TargetRateResult struct {
	Mode string
	// LatencyMedian is the µs sample latency.
	LatencyMedian float64
	// EstimateError is the mean relative rate-estimation error vs sender
	// ground truth.
	EstimateError float64
}

// TargetRateMirroring runs three saturated flows (3x oversubscription)
// under both modes.
func TargetRateMirroring(seed int64) []TargetRateResult {
	var out []TargetRateResult
	for _, target := range []units.Rate{0, 9 * units.Gbps} {
		mode := "oversubscribed"
		if target > 0 {
			mode = "target-rate 9G"
		}
		out = append(out, targetRateRun(mode, target, seed))
	}
	return out
}

func targetRateRun(mode string, target units.Rate, seed int64) TargetRateResult {
	opts := microLabOptions(SwitchG8264, 6, false, seed)
	base := opts.SwitchConfig
	opts.SwitchConfig = func(name string, ports int) switchsim.Config {
		cfg := base(name, ports)
		cfg.MirrorTargetRate = target
		return cfg
	}
	l := mustLab(opts)

	truth := make([]*truthRef, 3)
	for i := 0; i < 3; i++ {
		i := i
		truth[i] = newTruthRef()
		l.Hosts[i].OnSegmentSent = func(now units.Time, pkt *sim.Packet) {
			if pkt.PayloadLen > 0 && pkt.FlowID == int32(i) {
				truth[i].est.Observe(now, pkt.Seq)
			}
		}
		c, err := l.Hosts[i].StartFlow(0, topo.HostIP(i+3), 5001, 1<<40, int32(i))
		if err != nil {
			panic(err)
		}
		truth[i].key = c.FlowKey()
	}

	var est, want []float64
	sim.NewTicker(l.Eng, units.Millisecond, func(now units.Time) {
		if now < units.Time(20*units.Millisecond) {
			return
		}
		for i := 0; i < 3; i++ {
			tr, _, okT := truth[i].est.Rate()
			pr, okP := l.Collector(0).FlowRate(truth[i].key)
			if okT && okP && tr > 0 {
				est = append(est, float64(pr))
				want = append(want, float64(tr))
			}
		}
	})
	l.Run(120 * units.Millisecond)

	mre, err := stats.MeanRelativeError(est, want)
	if err != nil {
		panic(err)
	}
	return TargetRateResult{
		Mode:          mode,
		LatencyMedian: l.Collectors[0].SampleLatency.Median(),
		EstimateError: mre,
	}
}

// truthRef pairs a sender-trace estimator with its flow key.
type truthRef struct {
	est *core.RateEstimator
	key packet.FlowKey
}

func newTruthRef() *truthRef { return &truthRef{est: core.NewRateEstimator()} }

// TargetRateTable renders the comparison.
func TargetRateTable(rs []TargetRateResult) *Table {
	t := &Table{
		Title:   "§9.2 extension: target-rate mirroring vs oversubscription (3x load)",
		Columns: []string{"mode", "sample latency p50 (µs)", "rate-estimate error"},
	}
	for _, r := range rs {
		t.AddRow(r.Mode, fmt.Sprintf("%.0f", r.LatencyMedian), fmt.Sprintf("%.1f%%", r.EstimateError*100))
	}
	return t
}
