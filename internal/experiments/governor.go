package experiments

import (
	"fmt"
	"math"

	"planck/internal/governor"
	"planck/internal/sim"
	"planck/internal/topo"
	"planck/internal/units"
)

// GovAccuracyPoint is one mirror-load regime of the estimation sweep.
type GovAccuracyPoint struct {
	// Factor is the mirror oversubscription (saturated streams sharing
	// one monitor port).
	Factor int
	// Offered is the aggregate mirror load the estimator inferred.
	Offered units.Rate
	// Estimated is the estimator's aggregate effective sampling rate.
	Estimated float64
	// Truth is the exact effective rate from the switch's own counters.
	Truth float64
	// Analytic is the capacity model's prediction (≈1/Factor).
	Analytic float64
	// Confidence is the estimate's statistical weight.
	Confidence float64
}

// GovAccuracyParams configures the estimation-accuracy sweep.
type GovAccuracyParams struct {
	Factors  []int
	Duration units.Duration
	Seed     int64
}

// GovernorAccuracy sweeps mirror-queue saturation regimes and measures
// the RateEstimator against ground truth: k saturated TCP streams all
// mirror onto one 10 Gbps monitor port, so the analytic effective
// sampling rate is ≈1/k, and the switch's own mirror counters give the
// exact value. The estimator only sees what the governor would see at
// runtime — periodic counter polls landing in its sliding window.
func GovernorAccuracy(p GovAccuracyParams) []GovAccuracyPoint {
	if len(p.Factors) == 0 {
		p.Factors = []int{1, 2, 4, 8}
	}
	if p.Duration == 0 {
		p.Duration = 50 * units.Millisecond
	}
	var out []GovAccuracyPoint
	for _, k := range p.Factors {
		out = append(out, govAccuracyRun(k, p.Duration, p.Seed))
	}
	return out
}

func govAccuracyRun(k int, duration units.Duration, seed int64) GovAccuracyPoint {
	l := mustLab(microLabOptions(SwitchG8264, 2*k, false, seed))
	sw := l.Switches[0]

	est := governor.NewRateEstimator(sw.NumPorts())
	mon := sw.MonitorPort()
	sim.NewTicker(l.Eng, 500*units.Microsecond, func(now units.Time) {
		for p := 0; p < sw.NumPorts(); p++ {
			if p == mon {
				continue
			}
			q, d := sw.MirrorPortCounters(p)
			est.RecordMirrorCounters(now, p, q, d)
		}
	})

	for i := 0; i < k; i++ {
		if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(i+k), 5001, 1<<40, int32(i)); err != nil {
			panic(err)
		}
	}
	l.Run(duration)

	agg := est.Aggregate(l.Eng.Now())
	queued, dropped := sw.MirrorQueued.Bytes, sw.MirrorDropped.Bytes
	truth := 1.0
	if queued+dropped > 0 {
		truth = float64(queued) / float64(queued+dropped)
	}
	return GovAccuracyPoint{
		Factor:     k,
		Offered:    agg.Offered,
		Estimated:  agg.Effective,
		Truth:      truth,
		Analytic:   1 / float64(k),
		Confidence: agg.Confidence,
	}
}

// GovernorAccuracyTable renders the sweep.
func GovernorAccuracyTable(points []GovAccuracyPoint) *Table {
	t := &Table{
		Title:   "Governor estimation accuracy vs mirror load",
		Columns: []string{"mirror load", "offered (Gbps)", "estimated", "counter truth", "analytic 1/k", "|err|", "confidence"},
	}
	for _, pt := range points {
		t.AddRow(
			fmt.Sprintf("%dx", pt.Factor),
			fmt.Sprintf("%.1f", pt.Offered.Gigabits()),
			fmt.Sprintf("%.3f", pt.Estimated),
			fmt.Sprintf("%.3f", pt.Truth),
			fmt.Sprintf("%.3f", pt.Analytic),
			fmt.Sprintf("%.3f", math.Abs(pt.Estimated-pt.Truth)),
			fmt.Sprintf("%.2f", pt.Confidence),
		)
	}
	return t
}

// GovEpisodeResult is one governed saturation run.
type GovEpisodeResult struct {
	Episodes []governor.Episode
	// Converged counts closed control loops.
	Converged int
	// FinalEffective is the aggregate effective sampling rate at the
	// end of the run (post-tuning).
	FinalEffective float64
	// Thinned counts intentionally pre-thinned copies — the §9.2 "rate
	// of samples" machinery the governor drives.
	Thinned int64
}

// GovernorEpisode drives the canonical shed/tune scenario: a 2:1
// oversubscribed mirror on one switch, governed. Two saturated flows
// tune their egress ports down to the monitor budget while the
// ACK-only return ports are shed and later restored.
func GovernorEpisode(seed int64) GovEpisodeResult {
	opts := microLabOptions(SwitchG8264, 4, false, seed)
	opts.Govern = true
	l := mustLab(opts)

	mustFlow := func(src, dst int, id int32) {
		if _, err := l.Hosts[src].StartFlow(0, topo.HostIP(dst), 5001, 1<<30, id); err != nil {
			panic(err)
		}
	}
	mustFlow(0, 2, 1)
	mustFlow(1, 3, 2)
	l.Run(80 * units.Millisecond)

	gov := l.Governor(0)
	eff, _ := gov.LastEstimate()
	return GovEpisodeResult{
		Episodes:       gov.Episodes(),
		Converged:      gov.ConvergedEpisodes(),
		FinalEffective: eff,
		Thinned:        l.Switches[0].MirrorThinned.Packets,
	}
}

// GovernorEpisodeTable renders the episode trace.
func GovernorEpisodeTable(r GovEpisodeResult) *Table {
	t := &Table{
		Title:   "Governor shed/tune episode trace (2:1 oversubscribed mirror)",
		Columns: []string{"t", "kind", "sheds", "tunes", "restores", "effective", "conf", "actuated", "converged"},
	}
	for _, ep := range r.Episodes {
		conv := "-"
		if ep.ConvergedAt != 0 {
			conv = ep.ConvergedAt.String()
		}
		act := "-"
		if ep.ActuatedAt != 0 {
			act = ep.ActuatedAt.String()
		}
		t.AddRow(
			ep.At.String(), ep.Kind.String(),
			fmt.Sprintf("%d", ep.Sheds), fmt.Sprintf("%d", ep.Tunes), fmt.Sprintf("%d", ep.Restores),
			fmt.Sprintf("%.2f", ep.Effective), fmt.Sprintf("%.2f", ep.Confidence),
			act, conv,
		)
	}
	return t
}
