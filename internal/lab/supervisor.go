package lab

import (
	"errors"
	"fmt"
	"slices"

	"planck/internal/controller"
	"planck/internal/core"
	"planck/internal/obs"
	"planck/internal/obs/trace"
	"planck/internal/sim"
	"planck/internal/units"
)

// HeartbeatFlip records one dark/live transition of a supervised feed.
type HeartbeatFlip struct {
	At   units.Time
	Dark bool // true = went dark, false = recovered
}

// supEvent is one queued congestion event tagged with the collector
// generation that produced it.
type supEvent struct {
	gen int
	ev  core.CongestionEvent
}

// errPartitioned is what sendEvent reports while a controller
// partition window is active; the Deliverer retries it.
var errPartitioned = errors.New("lab: controller channel partitioned")

// sendEvent is the controller event channel every supervised deliverer
// sends through: it fails while partitioned, defers through an engine
// timer while a channel-delay window is active, and otherwise hands ev
// to the controller synchronously.
func (l *Lab) sendEvent(now units.Time, ev core.CongestionEvent) error {
	sched := l.Faults
	if sched.PartitionActive(now) {
		return errPartitioned
	}
	if d := sched.ChannelDelay(now); d > 0 {
		l.Eng.After(d, sim.Callback(func(units.Time) { l.Ctrl.DeliverEvent(ev) }), nil)
		return nil
	}
	l.Ctrl.DeliverEvent(ev)
	return nil
}

// Supervisor is the per-switch supervision loop of the robustness
// layer: it watches the collector feed with a heartbeat, restarts
// crashed collectors (re-syncing routing state and event cooldowns so
// replay is idempotent), routes congestion events to the controller
// through bounded retry with exponential backoff, and flags the feed
// dark while it delivers nothing — Planck's answer to "what happens
// when the monitoring plane itself fails".
//
// All methods run on the engine goroutine. The event subscription only
// appends to a queue, which drains at batch ends and heartbeat ticks, so
// event handling happens-after the batch that produced it.
type Supervisor struct {
	lab  *Lab
	s    int // switch index
	node *CollectorNode

	hb  heartbeatMonitor
	del *controller.Deliverer

	// gen tags the live collector generation; events queued by a dead
	// generation are discarded instead of reaching the controller.
	gen int

	evQ []supEvent

	// cooldowns holds the anchor of each port's newest delivered event:
	// it survives collector crashes and seeds RestoreCooldowns on the
	// replacement collector, so replayed congestion cannot re-fire
	// inside the cooldown.
	cooldowns map[int]units.Time

	flips []HeartbeatFlip

	// DarkFeed is 1 while the feed is dark.
	DarkFeed obs.Gauge
	// Restarts counts supervised collector restarts.
	Restarts obs.Counter
	// StaleEvents counts events discarded because a dead collector
	// generation emitted them.
	StaleEvents obs.Counter
	// MissStreak records, at each recovery, how many heartbeats the feed
	// missed while dark.
	MissStreak *obs.Histogram
}

// newSupervisor wires a supervisor over switch s's collector node and
// starts its heartbeat ticker.
func newSupervisor(l *Lab, s int, node *CollectorNode) *Supervisor {
	sup := &Supervisor{
		lab:        l,
		s:          s,
		node:       node,
		cooldowns:  make(map[int]units.Time),
		MissStreak: obs.NewScaledHistogram(1),
	}

	// A private PRNG for delivery jitter, so supervision never perturbs
	// data-plane determinism.
	sup.del = controller.NewSimDeliverer(l.Eng, l.opts.Seed+int64(s)*7919, l.sendEvent)
	sup.del.Tracer = l.opts.Tracer

	if l.Agg == nil {
		sup.subscribe()
		node.OnBatchEnd = sup.drainEvents
	}
	// In fleet mode the collector has no local event path to tap: its
	// samples flow to the aggregation plane, which owns detection,
	// dedup, and delivery. The supervisor keeps its heartbeat and
	// restart duties.
	sim.NewTicker(l.Eng, heartbeatInterval, sup.tick)

	label := obs.Label("switch", l.Net.SwitchNames[s])
	l.Metrics.MustRegister("planck_supervisor_dark", &sup.DarkFeed, label)
	l.Metrics.MustRegister("planck_supervisor_restarts_total", &sup.Restarts, label)
	l.Metrics.MustRegister("planck_supervisor_stale_events_total", &sup.StaleEvents, label)
	l.Metrics.MustRegister("planck_supervisor_heartbeat_miss_streak", sup.MissStreak, label)
	sup.del.Metrics.Register(l.Metrics, label)
	return sup
}

// subscribe attaches a generation-tagged event tap to the node's
// current collector. The closure captures the generation at subscribe
// time, so events a dead collector emitted are identifiable and
// discarded. The queue outlives the emit, so it keeps its own copy of
// the event's borrowed Flows.
func (sup *Supervisor) subscribe() {
	myGen := sup.gen
	sup.node.Collector().Subscribe(func(ev core.CongestionEvent) {
		ev.Flows = slices.Clone(ev.Flows)
		sup.evQ = append(sup.evQ, supEvent{myGen, ev})
	})
}

// drainEvents moves queued events to the controller on the engine
// goroutine: stale generations are dropped, the rest go through the
// retrying deliverer and become their port's cooldown anchor. The live
// collector was seeded with these anchors and applies the same
// cooldown, so it never emits an event inside one.
func (sup *Supervisor) drainEvents(now units.Time) {
	q := sup.evQ
	sup.evQ = nil
	tr := sup.lab.opts.Tracer
	for _, e := range q {
		if e.gen != sup.gen {
			sup.StaleEvents.Inc()
			if tr != nil {
				tr.Drop(e.ev.ID, trace.OutcomeDroppedStale)
			}
			continue
		}
		sup.cooldowns[e.ev.Port] = e.ev.Time
		if tr != nil {
			tr.MarkQueued(e.ev.ID, now)
		}
		sup.del.Deliver(now, e.ev)
	}
}

// tick is one supervision round: drain events, restart a crashed
// collector, and run the heartbeat state machine.
func (sup *Supervisor) tick(now units.Time) {
	sup.drainEvents(now)
	if sup.node.Crashed() {
		sup.restart()
	}
	streakBefore := sup.hb.streak
	switch sup.hb.beat(now, sup.node.LastDelivery()) {
	case heartbeatWentDark:
		sup.DarkFeed.Set(1)
		sup.flips = append(sup.flips, HeartbeatFlip{At: now, Dark: true})
		sup.dumpTraces(now, "feed went dark")
	case heartbeatRecovered:
		sup.DarkFeed.Set(0)
		sup.MissStreak.Observe(int64(streakBefore))
		sup.flips = append(sup.flips, HeartbeatFlip{At: now, Dark: false})
	}
}

// dumpTraces writes the tracer's flight recorder to the lab's TraceDump
// sink — the automatic black-box dump on monitoring-plane failures.
func (sup *Supervisor) dumpTraces(now units.Time, what string) {
	tr, w := sup.lab.opts.Tracer, sup.lab.opts.TraceDump
	if tr == nil || w == nil {
		return
	}
	tr.Dump(w, fmt.Sprintf("%s on %s at %v",
		what, sup.lab.Net.SwitchNames[sup.s], now))
}

// restart builds a replacement collector for the crashed one and
// re-syncs it: attached to the controller, so flow queries read it and
// it gets a fresh routing view from the versioned store — pinned to the
// current epoch by construction, so a collector that died before a
// reroute comes back attributing samples to the post-reroute state, not
// its private pre-crash copy (§3.2.1's route sync) — restored event
// cooldowns so replayed congestion does not re-fire inside the
// cooldown, and a new-generation event tap.
func (sup *Supervisor) restart() {
	sup.gen++
	sup.dumpTraces(sup.lab.Eng.Now(), "collector crash restart")
	ccfg := sup.lab.collectorCfgs[sup.s]
	// The first collector registered this switch's instruments; a
	// duplicate registration would panic, so replacements run bare.
	ccfg.Metrics = nil
	col := core.New(ccfg)
	sup.lab.Ctrl.AttachCollector(sup.s, col)
	col.RestoreCooldowns(sup.cooldowns)
	sup.node.Restart(col)
	if sup.lab.Agg == nil {
		sup.subscribe()
	} else if snd := sup.lab.LinkSender(sup.s); snd != nil {
		// Wire-transport fleet: the restart announcement travels
		// in-stream as a sequenced Rejoin frame, so the plane applies
		// it in exactly the position it holds among the vantage's
		// reports — even across report loss and retransmits.
		snd.Rejoin(sup.lab.Eng.Now(), uint32(sup.gen))
	} else if v := sup.lab.vantages[sup.s]; v != nil {
		// The replacement inherits the vantage sink through the stored
		// config; the plane's switch collector kept each link's
		// cooldown anchor (its lastEvent) while the collector was down,
		// so replayed congestion cannot re-fire events the fleet
		// already emitted.
		v.Rejoin()
	}
	sup.Restarts.Inc()
}

// Dark reports whether the feed is currently dark.
func (sup *Supervisor) Dark() bool { return sup.hb.dark }
