// Package agg is the federated aggregation plane: the tier that sits
// between a fleet of per-mirror-port vantage collectors and the
// controller, merging each collector's partial view of the network into
// one network-wide picture.
//
// Planck's deployment model (§2, §3.1) gives every switch — or every
// group of switches sharing a mirror port — its own collector. Each
// collector sees only the flows crossing its vantage, estimates their
// rates locally, and reports per-flow samples and congestion candidates
// upward. The plane:
//
//   - folds per-flow reports into one record per (switch, flow), kept
//     by a core.Collector per monitored switch (Collector.Fold), so the
//     plane's link accounting is the collector's own: the same records,
//     freshness rule, running per-port sums and recency list. A report
//     older than the record, by stamp or by routing epoch, is a
//     duplicate from an overlapping vantage and is dropped. The fleet's
//     aggregate is bit-identical to a hypothetical global collector's
//     view (the oracle in agg_test.go proves this);
//   - detects congestion in the same collector: a folded report that
//     closed a rate window runs Collector.CheckCongestion, whose
//     per-port cooldown is then the link's one cooldown for the whole
//     fleet — so overlapping vantages, epoch skew, and supervised
//     collector restarts never duplicate an event. A report stamped
//     behind the merge watermark skips detection and is counted late;
//   - tracks vantage liveness, flagging collectors that stop reporting
//     as stale instead of silently serving their frozen flows forever.
//
// The plane orders nothing itself: reports must arrive in network-wide
// time order. The in-process fleet delivers them in engine order; over
// the wire, vantagelink.Receiver is the one reorder buffer, releasing
// records once their order is final. The plane emits every event
// synchronously, as its report is folded in, stamped with the reporting
// vantage's ID.
//
// The plane is driven from the simulation engine goroutine (or any
// single caller goroutine); it is not internally synchronized, matching
// the serial core.Collector contract.
package agg

import (
	"planck/internal/core"
	"planck/internal/obs"
	"planck/internal/obs/trace"
	"planck/internal/units"
)

// Config parameterizes the plane. The zero value takes the collector
// defaults for the shared thresholds, so a plane and the collectors
// feeding it agree on what "congested" and "fresh" mean.
type Config struct {
	// UtilThreshold, EventCooldown, and FlowFreshness configure each
	// switch's collector, as the core.Config fields of the same names;
	// zero values take core's defaults, keeping plane-side detection
	// coherent with what a single global collector would decide.
	UtilThreshold float64
	EventCooldown units.Duration
	FlowFreshness units.Duration

	// ReorderWindow and ExternalMergeAdvance are ignored; nothing
	// reads them. The plane no longer buffers candidates: reports
	// arrive in final order (vantagelink.Receiver orders them over the
	// wire), and the merge clock moves only with reports and
	// AdvanceMerge, never with Tick. The fields remain so existing
	// callers keep compiling.
	ReorderWindow        units.Duration
	ExternalMergeAdvance bool

	// Metrics, when non-nil, receives the planck_agg_* instruments.
	Metrics *obs.Registry

	// Tracer, when non-nil, opens a control-loop span for every event
	// the plane emits (the detection end of the causal trace).
	Tracer *trace.Tracer
}

// StaleAfter is how long a vantage may go without reporting a sample
// before Tick flags it stale (crashed, partitioned, or simply dark): a
// handful of poll intervals.
const StaleAfter = 2 * units.Millisecond

// planeSwitch is the plane's per-monitored-switch state: the collector
// holding the switch's merged flow records and its links' cooldowns,
// fed reports instead of frames.
type planeSwitch struct {
	id  int32
	col *core.Collector
}

type planeMetrics struct {
	updates    obs.Counter // flow reports folded in
	dupReports obs.Counter // overlap reports dropped (older time/epoch)
	late       obs.Counter // rate-closing reports behind the merge watermark
	staleVant  obs.Gauge   // vantages currently flagged stale
	restarts   obs.Counter // vantage Rejoin calls (supervised restarts)
}

// VantageID identifies one vantage collector within a fleet. IDs are
// 1-based (Plane.Join assigns them) so a zero Vantage on an event still
// reads as "not fleet-attributed".
type VantageID int32

// Plane is the aggregation tier. Build one with New, hand each
// collector a sink from Join, subscribe the controller with Subscribe,
// and drive liveness with Tick.
type Plane struct {
	cfg      Config
	vantages []*Vantage
	switches map[int32]*planeSwitch
	subs     []func(ev core.CongestionEvent)
	now      units.Time
	// watermark is the merge clock: the newest emitted event or
	// AdvanceMerge time. A rate-closing report stamped behind it is late.
	watermark units.Time
	met       planeMetrics
}

// New builds an empty plane.
func New(cfg Config) *Plane {
	p := &Plane{
		cfg:      cfg,
		switches: make(map[int32]*planeSwitch),
	}
	if m := cfg.Metrics; m != nil {
		m.MustRegister("planck_agg_updates_total", &p.met.updates)
		m.MustRegister("planck_agg_flows", obs.GaugeFunc(func() float64 { return float64(p.FlowCount()) }))
		m.MustRegister("planck_agg_events_total", obs.GaugeFunc(func() float64 {
			return float64(p.total(func(s core.Stats) int64 { return s.EventsEmitted }))
		}))
		m.MustRegister("planck_agg_dup_flow_reports_total", &p.met.dupReports)
		m.MustRegister("planck_agg_events_suppressed_total", obs.GaugeFunc(func() float64 { return float64(p.SuppressedCandidates()) }))
		m.MustRegister("planck_agg_events_late_total", &p.met.late)
		m.MustRegister("planck_agg_vantages", obs.GaugeFunc(func() float64 { return float64(len(p.vantages)) }))
		m.MustRegister("planck_agg_stale_vantages", &p.met.staleVant)
		m.MustRegister("planck_agg_vantage_restarts_total", &p.met.restarts)
	}
	return p
}

// Join registers a vantage collector monitoring switch sw and returns
// its sink. Multiple vantages may join the same switch (overlapping
// mirror coverage); they share the switch's merged flow records. The
// returned Vantage implements core.AggregationSink — set it as the
// collector's Config.Sink.
func (p *Plane) Join(sw int, switchName string, numPorts int, capacity units.Rate) *Vantage {
	ps := p.switches[int32(sw)]
	if ps == nil {
		ps = &planeSwitch{
			id: int32(sw),
			col: core.New(core.Config{
				SwitchName:    switchName,
				NumPorts:      numPorts,
				LinkRate:      capacity,
				UtilThreshold: p.cfg.UtilThreshold,
				EventCooldown: p.cfg.EventCooldown,
				FlowFreshness: p.cfg.FlowFreshness,
				Tracer:        p.cfg.Tracer,
			}),
		}
		ps.col.Subscribe(p.emit)
		p.switches[int32(sw)] = ps
	}
	v := &Vantage{p: p, id: VantageID(len(p.vantages) + 1), sw: ps}
	p.vantages = append(p.vantages, v)
	return v
}

// Subscribe registers fn for merged network-wide congestion events.
// fn borrows each event's Flows from the switch collector that emitted
// it (see core.CongestionEvent.Flows).
func (p *Plane) Subscribe(fn func(ev core.CongestionEvent)) {
	p.subs = append(p.subs, fn)
}

// emit is every switch collector's subscriber: an emitted event raises
// the merge watermark to its time and fans out to the plane's
// subscribers.
func (p *Plane) emit(ev core.CongestionEvent) {
	p.watermark = ev.Time
	for _, fn := range p.subs {
		fn(ev)
	}
}

// Tick advances plane housekeeping to now: re-evaluates vantage
// staleness. Drive it from a periodic ticker.
//
// Staleness is judged on lastRecv — when the vantage last *reached*
// the plane, on the plane's own clock — never on the report content
// timestamps, which belong to the collector's (possibly skewed) clock.
// A skewed-but-healthy vantage therefore stays live, and a partitioned
// one flips stale even while its pre-partition reports are still
// draining out of the transport.
func (p *Plane) Tick(now units.Time) {
	if now > p.now {
		p.now = now
	}
	stale := int64(0)
	for _, v := range p.vantages {
		v.stale = now.Sub(v.lastRecv) > StaleAfter
		if v.stale {
			stale++
		}
	}
	p.met.staleVant.Set(stale)
}

// AdvanceMerge moves the plane's clock and the merge watermark to a
// transport receiver's delivery watermark (wire it to
// vantagelink.Receiver.OnAdvance). Every record stamped before it has
// been delivered, so a report older than it can only come from a
// vantage back from exclusion; the plane folds that one but runs no
// detection on it, and counts it late.
func (p *Plane) AdvanceMerge(now units.Time) {
	if now > p.now {
		p.now = now
	}
	if now > p.watermark {
		p.watermark = now
	}
}

// Flush does nothing: the plane emits every candidate as its report is
// folded in, so nothing is ever buffered. It remains for callers that
// end a run with it.
func (p *Plane) Flush() {}

// EachFlow visits every merged flow record with a rate estimate —
// the te.NetworkSource seam PlanckTE consumes instead of polling
// per-switch collectors.
func (p *Plane) EachFlow(fn func(sw int, fi core.FlowInfo, lastSeen units.Time)) {
	for _, ps := range p.switches {
		ps.col.Flows(func(f *core.FlowState) {
			if r, ok := f.Rate(); ok {
				fn(int(ps.id), core.FlowInfo{Key: f.Key, DstMAC: f.DstMAC, Rate: r, OutPort: f.OutPort()}, f.LastSeen)
			}
		})
	}
}

// FlowCount returns the number of live merged flow records.
func (p *Plane) FlowCount() int {
	return int(p.total(func(s core.Stats) int64 { return int64(s.Flows) }))
}

// total sums one figure of the switch collectors' Stats.
func (p *Plane) total(of func(core.Stats) int64) int64 {
	n := int64(0)
	for _, ps := range p.switches {
		n += of(ps.col.Stats())
	}
	return n
}

// StaleVantages returns the vantages flagged stale by the last Tick.
func (p *Plane) StaleVantages() []*Vantage {
	var out []*Vantage
	for _, v := range p.vantages {
		if v.stale {
			out = append(out, v)
		}
	}
	return out
}

// Vantages returns the number of joined vantages.
func (p *Plane) Vantages() int { return len(p.vantages) }

// DupReports returns the count of overlap reports dropped by the
// cross-vantage dedup.
func (p *Plane) DupReports() int64 { return p.met.dupReports.Value() }

// SuppressedCandidates returns the count of congestion candidates the
// switch collectors' link cooldowns suppressed.
func (p *Plane) SuppressedCandidates() int64 {
	return p.total(func(s core.Stats) int64 { return s.Suppressed })
}

// LateReports returns the count of rate-closing reports that arrived
// behind the merge watermark and so skipped detection.
func (p *Plane) LateReports() int64 { return p.met.late.Value() }

// Vantage is one collector's handle on the plane. It implements
// core.AggregationSink: set it as the collector's Config.Sink (or as a
// transport receiver's delivery target) and the collector reports
// every flow sample here.
type Vantage struct {
	p         *Plane
	id        VantageID
	sw        *planeSwitch
	lastRecv  units.Time // when the vantage last reached the plane (plane clock)
	transport bool       // liveness owned by a transport receiver's NoteLive
	stale     bool
}

// ID returns the vantage's plane-assigned identifier (1-based).
func (v *Vantage) ID() VantageID { return v.id }

// NoteLive marks the vantage live as of the plane's receive clock —
// a transport receiver calls it for every frame (data or heartbeat)
// that arrives from the vantage, so liveness tracks the channel, not
// the collector's (possibly skewed) report timestamps.
func (v *Vantage) NoteLive(now units.Time) {
	if now > v.lastRecv {
		v.lastRecv = now
	}
	v.stale = false
}

// BindTransport marks the vantage transport-driven: liveness comes
// solely from the receiver's NoteLive calls and Report stops
// refreshing it, so a dead channel flips the vantage stale even while
// buffered pre-partition reports are still draining into the plane.
func (v *Vantage) BindTransport() { v.transport = true }

// Rejoin records a supervised restart of the vantage's collector. The
// plane keeps the vantage's merged flows and — critically — the switch
// collector's per-link cooldown anchors, so a restarted collector
// re-reporting the same congestion cannot duplicate an event the fleet
// already emitted.
func (v *Vantage) Rejoin() {
	v.p.met.restarts.Inc()
}

// Report implements core.AggregationSink: fold one per-flow sample
// from this vantage into the merged view and, when the sample closed a
// rate-estimation window, run the switch collector's congestion check —
// the same trigger discipline ingest uses.
func (v *Vantage) Report(rep *core.FlowReport) {
	p := v.p
	t := rep.Time
	if t > p.now {
		p.now = t
	}
	if !v.transport {
		// In-process delivery: receive time and report time are the same
		// clock, so the report itself refreshes liveness. A transport
		// receiver calls NoteLive instead.
		if t > v.lastRecv {
			v.lastRecv = t
		}
		v.stale = false
	}
	p.met.updates.IncRelaxed()
	v.fold(rep)
}

// fold merges one report into the switch's flow records and, when it
// closed a rate window, checks its link for congestion at the report's
// time. A report older than the record (Collector.Fold's duplicate
// rule) is dropped; one behind the merge watermark is folded but not
// checked, and counted late. A plane nobody listens to checks nothing.
func (v *Vantage) fold(rep *core.FlowReport) {
	p := v.p
	f := v.sw.col.Fold(rep)
	if f == nil {
		p.met.dupReports.IncRelaxed()
		return
	}
	if !rep.RateUpdated || len(p.subs) == 0 && p.cfg.Tracer == nil {
		return
	}
	if rep.Time < p.watermark {
		p.met.late.IncRelaxed()
		return
	}
	v.sw.col.CheckCongestion(rep.Time, f, int(v.id))
}
