package controller

import (
	"planck/internal/obs"
	"planck/internal/units"
)

// ctrlMetrics holds the controller's reroute-latency histograms. They
// record the modelled control-channel delay chosen for each actuation
// (the Fig. 16 quantity), in nanoseconds, reported as microseconds.
type ctrlMetrics struct {
	arpDelay    *obs.Histogram
	ofDelay     *obs.Histogram
	mirrorDelay *obs.Histogram
}

func newCtrlMetrics() *ctrlMetrics {
	return &ctrlMetrics{
		arpDelay:    obs.NewScaledHistogram(1e-3),
		ofDelay:     obs.NewScaledHistogram(1e-3),
		mirrorDelay: obs.NewScaledHistogram(1e-3),
	}
}

func (m *ctrlMetrics) observe(viaARP bool, d units.Duration) {
	if viaARP {
		m.arpDelay.Observe(int64(d))
	} else {
		m.ofDelay.Observe(int64(d))
	}
}

// RegisterMetrics exposes the controller's counters and actuation-delay
// histograms in r. The counter gauges read the controller's plain
// fields; like the engine, the controller is single-threaded, so
// snapshots taken mid-run from another goroutine are best-effort.
func (c *Controller) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("planck_controller_arp_reroutes_total", func() float64 { return float64(c.ARPReroutes) })
	r.GaugeFunc("planck_controller_of_reroutes_total", func() float64 { return float64(c.OFReroutes) })
	r.GaugeFunc("planck_controller_congestion_events_total", func() float64 { return float64(c.Events) })
	r.GaugeFunc("planck_controller_mirror_commits_total", func() float64 { return float64(c.MirrorCommits) })
	r.MustRegister("planck_controller_arp_delay_us", c.met.arpDelay)
	r.MustRegister("planck_controller_of_delay_us", c.met.ofDelay)
	r.MustRegister("planck_controller_mirror_delay_us", c.met.mirrorDelay)
}
