package core

import (
	"planck/internal/obs"
)

// collectorMetrics is the collector's instrument panel. The counters
// and the flow-table gauge are always live (a handful of uncontended
// atomic adds per sample, no allocation); the per-stage histograms are
// created only when timing is enabled, so an uninstrumented collector
// pays nothing for the wall-clock reads.
//
// Stage boundaries follow the paper's §3.2 pipeline: decode the raw
// frame (§3.2.1 parsing), resolve it in the flow table and infer ports
// (§3.2.1), advance the sequence-number rate estimator (§3.2.2),
// recompute link utilization (§3.2.2's per-link sum), and dispatch
// congestion events to subscribers (§3.3).
type collectorMetrics struct {
	samples       obs.Counter
	decodeErrors  obs.Counter
	nonTCP        obs.Counter
	rateUpdates   obs.Counter
	events        obs.Counter
	unmapped      obs.Counter
	outOfOrder    obs.Counter // monotonic, matching Stats.OutOfOrder
	flowTableSize obs.Gauge

	timed bool
	// Wall-clock nanoseconds per pipeline stage, plus the whole Ingest.
	stageDecode    *obs.Histogram
	stageFlowTable *obs.Histogram
	stageEstimate  *obs.Histogram
	stageUtil      *obs.Histogram
	stageDispatch  *obs.Histogram
	ingest         *obs.Histogram
	// batchSamples records samples per IngestBatch call; probeLen
	// records the flow table's probe length at each insert (a standing
	// proxy for table health that stays off the per-lookup path).
	batchSamples *obs.Histogram
	probeLen     *obs.Histogram

	// suppressed counts congestion candidates inside their link's
	// cooldown. It sits last so that no per-sample field moves for it.
	suppressed obs.Counter
}

func (m *collectorMetrics) init(timed bool) {
	m.timed = timed
	if timed {
		m.stageDecode = obs.NewHistogram()
		m.stageFlowTable = obs.NewHistogram()
		m.stageEstimate = obs.NewHistogram()
		m.stageUtil = obs.NewHistogram()
		m.stageDispatch = obs.NewHistogram()
		m.ingest = obs.NewHistogram()
		m.batchSamples = obs.NewHistogram()
		m.probeLen = obs.NewHistogram()
	}
}

// register exposes the collector's instruments in r. The switch name
// becomes a label so that many collectors (one per monitor port, as
// deployed) share one registry without name collisions.
func (c *Collector) register(r *obs.Registry) {
	var labels []string
	if c.cfg.SwitchName != "" {
		labels = []string{obs.Label("switch", c.cfg.SwitchName)}
	}
	m := &c.met
	r.MustRegister("planck_collector_samples_total", &m.samples, labels...)
	r.MustRegister("planck_collector_decode_errors_total", &m.decodeErrors, labels...)
	r.MustRegister("planck_collector_non_tcp_total", &m.nonTCP, labels...)
	r.MustRegister("planck_collector_rate_updates_total", &m.rateUpdates, labels...)
	r.MustRegister("planck_collector_congestion_events_total", &m.events, labels...)
	r.MustRegister("planck_collector_unmapped_output_total", &m.unmapped, labels...)
	r.MustRegister("planck_collector_out_of_order_total", &m.outOfOrder, labels...)
	r.MustRegister("planck_collector_flow_table_size", &m.flowTableSize, labels...)
	if m.timed {
		r.MustRegister("planck_collector_ingest_ns", m.ingest, labels...)
		r.MustRegister("planck_collector_stage_decode_ns", m.stageDecode, labels...)
		r.MustRegister("planck_collector_stage_flow_table_ns", m.stageFlowTable, labels...)
		r.MustRegister("planck_collector_stage_estimate_ns", m.stageEstimate, labels...)
		r.MustRegister("planck_collector_stage_utilization_ns", m.stageUtil, labels...)
		r.MustRegister("planck_collector_stage_dispatch_ns", m.stageDispatch, labels...)
		r.MustRegister("planck_collector_batch_samples", m.batchSamples, labels...)
		r.MustRegister("planck_collector_table_probe_len", m.probeLen, labels...)
	}
}

// IngestTimings returns the whole-Ingest wall-clock histogram
// (nanoseconds per sample), or nil when timing is disabled.
func (c *Collector) IngestTimings() *obs.Histogram { return c.met.ingest }
