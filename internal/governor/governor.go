package governor

import (
	"planck/internal/obs"
	"planck/internal/obs/trace"
	"planck/internal/routing"
	"planck/internal/stats"
	"planck/internal/units"
)

// The governor loop's fixed tuning, sized for the millisecond control
// loop.
const (
	// Tick is the governor's control period.
	Tick = 1 * units.Millisecond
	// Cooldown rate-limits actuations: after a commit, the governor
	// holds off further shed/tune/restore decisions for this long — the
	// same discipline the event path applies per link.
	Cooldown = 5 * units.Millisecond
	// RecoverThreshold is the effective rate at or above which a
	// pending episode counts as converged and restores become eligible.
	RecoverThreshold float64 = 0.9
	// MinConfidence gates actuation on estimate confidence: the
	// governor never acts on an estimate backed by too few packets.
	MinConfidence float64 = 0.5
	// Headroom scales the monitor-link budget the tuner divides among
	// the surviving ports.
	Headroom float64 = 0.9
	// HealthyTicks is how many consecutive healthy ticks (effective ≥
	// RecoverThreshold) must pass before a shed port is restored —
	// hysteresis against shed/restore oscillation.
	HealthyTicks int = 8
	// SaturationThreshold is the aggregate effective sampling rate
	// below which the monitor port counts as saturated and a shed/tune
	// episode begins. It sits above the 2:1 operating point (≈0.5) so
	// episodes trigger decisively.
	SaturationThreshold float64 = 0.6
	// ShedFraction: a mirrored port whose share of the offered mirror
	// load is below this fraction is shed instead of tuned — it costs
	// monitor-queue space but yields few samples. It is wide enough to
	// classify ACK-only return ports as low-value.
	ShedFraction float64 = 0.1
)

// Vantage is the data-plane view the governor polls: per-port mirror
// counters and the live mirror session state. *switchsim.Switch
// satisfies it; a deployment would back it with hardware counters.
type Vantage interface {
	NumPorts() int
	MonitorPort() int
	PortMirrored(p int) bool
	MirrorPortCounters(p int) (queued, dropped stats.Counter)
}

// Actuator is the control-plane seam the governor actuates through:
// one mirror-configuration transaction per decision, committed into
// the epoch-versioned snapshot plane. *controller.Controller satisfies
// it with CommitMirror.
type Actuator interface {
	CommitMirror(now units.Time, traceID uint64, mutate func(*routing.Tx), onActuated func(fire units.Time)) int
}

// EpisodeKind labels a governor actuation episode.
type EpisodeKind uint8

// Episode kinds.
const (
	// EpisodeShedTune is a saturation response: shed low-value ports,
	// tune the survivors' per-port sample-rate budgets.
	EpisodeShedTune EpisodeKind = iota
	// EpisodeRestore re-admits a previously shed port after sustained
	// health.
	EpisodeRestore
)

// String implements fmt.Stringer.
func (k EpisodeKind) String() string {
	if k == EpisodeRestore {
		return "restore"
	}
	return "shed-tune"
}

// Episode records one governor actuation for experiments and the
// smoke gate: what was decided, against which estimate, and when the
// loop closed.
type Episode struct {
	At   units.Time
	Kind EpisodeKind
	// Sheds/Tunes/Restores count the port-level changes in the commit.
	Sheds, Tunes, Restores int
	// Effective and Confidence snapshot the triggering estimate.
	Effective, Confidence float64
	// TraceID is the control-loop span following this episode (0 when
	// untraced).
	TraceID uint64
	// ActuatedAt is when the last diff entry landed on the data plane;
	// ConvergedAt is when the estimator confirmed recovery (zero while
	// pending).
	ActuatedAt, ConvergedAt units.Time
}

// Governor is one switch's closed-loop sampling-rate controller: each
// tick it polls the vantage's mirror counters into its estimator, and
// when the monitor port saturates (effective sampling rate below
// threshold, at sufficient confidence, outside the cooldown, and —
// critically — only while its vantage is live) it
// commits a mirror-configuration transaction shedding low-value ports
// and tuning the survivors' per-port sample budgets. Convergence is
// confirmed by the estimator itself: the span closes when the
// effective rate recovers past RecoverThreshold.
type Governor struct {
	sw   Vantage
	act  Actuator
	est  *RateEstimator
	name string // switch name, for trace spans
	s    int    // switch index

	// monitorRate is the monitor link's line rate — the budget the
	// tuner divides.
	monitorRate units.Rate

	// dark, when set, reports whether the vantage's mirror feed is
	// dark (supervisor heartbeat): a governor must never actuate from
	// a dark vantage's stale estimate.
	dark func() bool

	trc *trace.Tracer
	// epoch, when set, reads the routing store's current epoch for
	// trace spans.
	epoch func() uint64

	cooldownUntil units.Time
	healthyTicks  int
	// pending is the episode awaiting convergence (index into episodes,
	// -1 when none).
	pending  int
	episodes []Episode

	// desired mirrors the governor's committed per-port state so tunes
	// are only counted (and committed) when they change something.
	desired []routing.MirrorPortConfig
	haveCfg []bool

	// Metrics (planck_governor_*).
	Ticks            obs.Counter
	Commits          obs.Counter
	Sheds            obs.Counter
	Tunes            obs.Counter
	Restores         obs.Counter
	SkippedDark      obs.Counter
	SkippedCooldown  obs.Counter
	SkippedLowConf   obs.Counter
	ConvergedLoops   obs.Counter
	lastEffective    float64
	lastConfidence   float64
	lastOfferedGauge obs.Gauge
}

// New builds a governor for one switch, with a rate estimator over its
// ports; monitorRate is the monitor link's line rate.
func New(name string, s int, sw Vantage, act Actuator, monitorRate units.Rate) *Governor {
	return &Governor{
		sw:          sw,
		act:         act,
		est:         NewRateEstimator(sw.NumPorts()),
		name:        name,
		s:           s,
		monitorRate: monitorRate,
		pending:     -1,
		desired:     make([]routing.MirrorPortConfig, sw.NumPorts()),
		haveCfg:     make([]bool, sw.NumPorts()),
	}
}

// SetDarkGuard installs the vantage-liveness check (supervisor.Dark).
func (g *Governor) SetDarkGuard(fn func() bool) { g.dark = fn }

// SetTracer attaches a control-loop tracer and an epoch reader; each
// episode then opens a span from saturation detection through
// decision, actuation, and estimator-confirmed convergence.
func (g *Governor) SetTracer(tr *trace.Tracer, epoch func() uint64) {
	g.trc = tr
	g.epoch = epoch
}

// Episodes returns the recorded actuation episodes.
func (g *Governor) Episodes() []Episode { return append([]Episode(nil), g.episodes...) }

// LastEstimate returns the aggregate estimate from the latest tick.
func (g *Governor) LastEstimate() (effective, confidence float64) {
	return g.lastEffective, g.lastConfidence
}

// ConvergedEpisodes counts episodes whose loop closed.
func (g *Governor) ConvergedEpisodes() int {
	n := 0
	for i := range g.episodes {
		if g.episodes[i].ConvergedAt != 0 {
			n++
		}
	}
	return n
}

// RegisterMetrics exposes the governor's planck_governor_* series,
// labelled by switch.
func (g *Governor) RegisterMetrics(r *obs.Registry) {
	label := obs.Label("switch", g.name)
	r.MustRegister("planck_governor_ticks_total", &g.Ticks, label)
	r.MustRegister("planck_governor_commits_total", &g.Commits, label)
	r.MustRegister("planck_governor_sheds_total", &g.Sheds, label)
	r.MustRegister("planck_governor_tunes_total", &g.Tunes, label)
	r.MustRegister("planck_governor_restores_total", &g.Restores, label)
	r.MustRegister("planck_governor_skipped_dark_total", &g.SkippedDark, label)
	r.MustRegister("planck_governor_skipped_cooldown_total", &g.SkippedCooldown, label)
	r.MustRegister("planck_governor_skipped_lowconf_total", &g.SkippedLowConf, label)
	r.MustRegister("planck_governor_converged_loops_total", &g.ConvergedLoops, label)
	r.MustRegister("planck_governor_offered_bps", &g.lastOfferedGauge, label)
	r.GaugeFunc("planck_governor_effective", func() float64 { return g.lastEffective }, label)
}

// Tick is one governor round, driven from a sim ticker every Tick.
func (g *Governor) Tick(now units.Time) {
	g.Ticks.Inc()

	// Poll the vantage's per-port mirror counters into the estimator.
	// This runs even while dark — the estimate must stay fresh so the
	// governor can act the moment the feed recovers — but no actuation
	// decision is taken from it below.
	mon := g.sw.MonitorPort()
	for p := 0; p < g.sw.NumPorts(); p++ {
		if p == mon {
			continue
		}
		q, d := g.sw.MirrorPortCounters(p)
		g.est.RecordMirrorCounters(now, p, q, d)
	}

	agg := g.est.Aggregate(now)
	g.lastEffective, g.lastConfidence = agg.Effective, agg.Confidence
	g.lastOfferedGauge.Set(int64(agg.Offered))

	// Close a pending episode once the estimator confirms recovery.
	if g.pending >= 0 && agg.Effective >= RecoverThreshold &&
		agg.Confidence >= MinConfidence {
		ep := &g.episodes[g.pending]
		if ep.ActuatedAt != 0 { // actuation landed; loop is closed
			ep.ConvergedAt = now
			if g.trc != nil && ep.TraceID != 0 {
				g.trc.MarkConverged(ep.TraceID, now)
			}
			g.ConvergedLoops.Inc()
			g.pending = -1
		}
	}

	// The chaos contract: a dark vantage's estimate is stale by
	// definition — never actuate from it.
	if g.dark != nil && g.dark() {
		g.SkippedDark.Inc()
		g.healthyTicks = 0
		return
	}

	healthy := agg.Effective >= RecoverThreshold
	if healthy {
		g.healthyTicks++
	} else {
		g.healthyTicks = 0
	}

	if now < g.cooldownUntil {
		g.SkippedCooldown.Inc()
		return
	}

	if agg.Effective < SaturationThreshold {
		if agg.Confidence < MinConfidence {
			g.SkippedLowConf.Inc()
			return
		}
		g.shedTune(now, agg)
		return
	}

	// Sustained health with shed ports outstanding: restore one per
	// episode, probing back toward full coverage.
	if healthy && g.healthyTicks >= HealthyTicks && g.pending < 0 {
		g.restoreOne(now, agg)
	}
}

// shedTune plans and commits one saturation response: rank mirrored
// ports by their share of the offered mirror load, shed those below
// ShedFraction, and divide the monitor budget among the survivors as
// per-port target rates.
func (g *Governor) shedTune(now units.Time, agg Estimate) {
	mon := g.sw.MonitorPort()
	budget := units.Rate(Headroom * float64(g.monitorRate))

	// Per-port offered rates over the live mirrored set.
	var total units.Rate
	offered := make([]units.Rate, g.sw.NumPorts())
	for p := range offered {
		if p == mon || !g.sw.PortMirrored(p) {
			continue
		}
		est := g.est.Estimate(now, p)
		offered[p] = est.Offered
		total += est.Offered
	}
	if total <= 0 {
		return
	}

	// Plan: shed below-fraction ports, then split the budget over the
	// survivors proportional to their offered load.
	var keptTotal units.Rate
	shed := make([]bool, len(offered))
	for p, off := range offered {
		if p == mon || !g.sw.PortMirrored(p) {
			continue
		}
		if float64(off) < ShedFraction*float64(total) {
			shed[p] = true
			continue
		}
		keptTotal += off
	}
	if keptTotal <= 0 {
		return
	}

	var sheds, tunes int
	plan := make([]routing.MirrorPortConfig, len(offered))
	touch := make([]bool, len(offered))
	for p, off := range offered {
		if p == mon || !g.sw.PortMirrored(p) {
			continue
		}
		var want routing.MirrorPortConfig
		if shed[p] {
			want = routing.MirrorPortConfig{Mirrored: false}
		} else {
			rate := units.Rate(float64(budget) * float64(off) / float64(keptTotal))
			want = routing.MirrorPortConfig{Mirrored: true, TargetRate: rate}
		}
		if g.haveCfg[p] && g.desired[p] == want {
			continue // already committed; nothing to change
		}
		plan[p], touch[p] = want, true
		if shed[p] {
			sheds++
		} else {
			tunes++
		}
	}
	if sheds+tunes == 0 {
		return
	}

	g.commit(now, EpisodeShedTune, agg, plan, touch, sheds, tunes, 0)
}

// restoreOne re-admits the lowest-numbered shed port with a probe-rate
// budget, keeping restores gradual.
func (g *Governor) restoreOne(now units.Time, agg Estimate) {
	mon := g.sw.MonitorPort()
	for p := 0; p < g.sw.NumPorts(); p++ {
		if p == mon || g.sw.PortMirrored(p) {
			continue
		}
		if !g.haveCfg[p] || g.desired[p].Mirrored {
			continue // not shed by us
		}
		probe := units.Rate(Headroom * ShedFraction * float64(g.monitorRate))
		plan := make([]routing.MirrorPortConfig, g.sw.NumPorts())
		touch := make([]bool, g.sw.NumPorts())
		plan[p] = routing.MirrorPortConfig{Mirrored: true, TargetRate: probe}
		touch[p] = true
		g.commit(now, EpisodeRestore, agg, plan, touch, 0, 0, 1)
		return
	}
}

// commit opens the trace span, commits the transaction, and records
// the episode.
func (g *Governor) commit(now units.Time, kind EpisodeKind, agg Estimate,
	plan []routing.MirrorPortConfig, touch []bool, sheds, tunes, restores int) {

	var traceID uint64
	if g.trc != nil {
		traceID = g.trc.NextID()
		var epochOld uint64
		if g.epoch != nil {
			epochOld = g.epoch()
		}
		// The span's "congested link" is the monitor port itself: the
		// offered mirror load against the monitor line rate.
		g.trc.Begin(traceID, now, g.name, g.sw.MonitorPort(), epochOld, agg.Offered, g.monitorRate)
		// The governor detects, decides, and commits in one place: the
		// queue and delivery stages collapse to zero.
		g.trc.MarkQueued(traceID, now)
		g.trc.MarkDelivered(traceID, now)
	}

	idx := len(g.episodes)
	g.episodes = append(g.episodes, Episode{
		At: now, Kind: kind,
		Sheds: sheds, Tunes: tunes, Restores: restores,
		Effective: agg.Effective, Confidence: agg.Confidence,
		TraceID: traceID,
	})

	n := g.act.CommitMirror(now, traceID, func(tx *routing.Tx) {
		for p, t := range touch {
			if t {
				tx.SetMirrorPort(g.s, p, plan[p])
			}
		}
	}, func(fire units.Time) {
		g.episodes[idx].ActuatedAt = fire
	})
	if n == 0 {
		// The committed state already matched (e.g. re-planned the same
		// config): drop the episode, nothing actuated.
		g.episodes = g.episodes[:idx]
		return
	}

	for p, t := range touch {
		if t {
			g.desired[p], g.haveCfg[p] = plan[p], true
		}
	}
	g.Commits.Inc()
	g.Sheds.Add(int64(sheds))
	g.Tunes.Add(int64(tunes))
	g.Restores.Add(int64(restores))
	g.pending = idx
	g.cooldownUntil = now.Add(Cooldown)
	g.healthyTicks = 0
}
