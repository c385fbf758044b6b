// Package controller models the Planck SDN controller (§3.3, §4.1): it
// installs PAST spanning-tree routes and shadow-MAC alternates into every
// switch, configures oversubscribed mirroring, shares routing state with
// collectors (the port-inference oracle of §3.2.1), aggregates collector
// congestion events for applications, and actuates reroutes through the
// two mechanisms of §6.2 — spoofed unicast ARP and OpenFlow rewrite
// rules — with control-channel latencies calibrated to Fig. 16.
//
// The controller does not mutate switches or mappers in place. Every
// route change is a Commit transaction against the versioned routing
// store (internal/routing): commit the next epoch snapshot, diff it
// against the previous one, and schedule the diff's actuation onto the
// data plane through a routing.Actuator after the modelled control
// latency. Collectors and TE read the same store, so every consumer
// agrees on which routes were live at any instant.
package controller

import (
	"fmt"
	"math/rand"

	"planck/internal/core"
	"planck/internal/obs/trace"
	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/sim"
	"planck/internal/switchsim"
	"planck/internal/tcpsim"
	"planck/internal/topo"
	"planck/internal/units"
)

// Config holds control-channel latency models. The defaults reproduce the
// measured response-latency CDFs of Fig. 16: ARP-based control lands at
// 2.5–3.5 ms and OpenFlow-based control at 4–9 ms, with most of the
// difference attributable to switch firmware rule-installation time.
type Config struct {
	// ArpDelayMin/Max bound the controller->host packet-out path: event
	// processing in the controller, the OpenFlow channel, and the switch
	// CPU injecting the crafted ARP.
	ArpDelayMin, ArpDelayMax units.Duration
	// OFDelayMin/Max bound OpenFlow rule installation at the switch.
	OFDelayMin, OFDelayMax units.Duration
	// SettleDelay is how long the controller waits after installing
	// routes before using them, giving collectors time to absorb the
	// route-sync broadcast (§4.1).
	SettleDelay units.Duration
}

// DefaultConfig returns the Fig. 16-calibrated latency model.
func DefaultConfig() Config {
	return Config{
		ArpDelayMin: 2200 * units.Microsecond,
		ArpDelayMax: 3100 * units.Microsecond,
		OFDelayMin:  3700 * units.Microsecond,
		OFDelayMax:  8500 * units.Microsecond,
		SettleDelay: 1 * units.Millisecond,
	}
}

// Controller wires the network together: it owns the routing store's
// write side and an Actuator that realizes committed snapshots on the
// data plane.
type Controller struct {
	eng *sim.Engine
	cfg Config
	rng *rand.Rand

	// store is the versioned routing-state plane. The controller is
	// its single writer; collectors (through Views) and TE read it
	// lock-free.
	store *routing.Store
	// act realizes snapshots and snapshot diffs on the data plane.
	act routing.Actuator

	collectors []*core.Collector // indexed by switch, nil entries allowed

	subs []func(ev core.CongestionEvent)

	// OnReroute observes every actuation at decision time (before the
	// control-channel delay), letting experiments measure response
	// latency end to end.
	OnReroute func(now units.Time, flow packet.FlowKey, srcHost, dstHost, tree int, viaARP bool)

	// Statistics.
	ARPReroutes   int64
	OFReroutes    int64
	MirrorCommits int64
	Events        int64

	met *ctrlMetrics

	// trc, when set, records control-loop spans; curCause is the ID of
	// the event currently being fanned out, so reroutes committed from
	// inside a subscriber are attributed to the event that caused them.
	trc      *trace.Tracer
	curCause uint64
}

// New creates a controller over an assembled simulated data plane. The
// switches and hosts slices must be indexed consistently with net.
func New(eng *sim.Engine, net *topo.Network, switches []*switchsim.Switch, hosts []*tcpsim.Host, cfg Config, rng *rand.Rand) *Controller {
	return NewWithActuator(eng, net, NewSimActuator(eng, net, switches, hosts), cfg, rng)
}

// NewWithActuator creates a controller that actuates through act —
// the seam that lets a non-simulated data plane (or a test double)
// receive snapshot installs and diff applications.
func NewWithActuator(eng *sim.Engine, net *topo.Network, act routing.Actuator, cfg Config, rng *rand.Rand) *Controller {
	if rng == nil {
		panic("controller: need a deterministic rng")
	}
	return &Controller{
		eng:        eng,
		cfg:        cfg,
		rng:        rng,
		store:      routing.NewStore(net),
		act:        act,
		collectors: make([]*core.Collector, net.NumSwitches()),
		met:        newCtrlMetrics(),
	}
}

// Network returns the topology.
func (c *Controller) Network() *topo.Network { return c.store.Net() }

// Engine returns the simulation engine.
func (c *Controller) Engine() *sim.Engine { return c.eng }

// RoutingStore exposes the versioned routing-state plane so TE and
// other read-side consumers share the controller's epochs.
func (c *Controller) RoutingStore() *routing.Store { return c.store }

// InstallRoutes commits the initial routing epoch — each destination's
// base tree (PAST picks one tree per address; nil means tree 0
// everywhere) plus the mirror setting — and installs the snapshot on
// the data plane: MAC entries of all routing trees, egress shadow-MAC
// restore rules, edge-port marking, mirror sessions, host ARP caches.
func (c *Controller) InstallRoutes(initialTrees []int, mirror bool) {
	net := c.store.Net()
	if initialTrees == nil {
		initialTrees = make([]int, net.NumHosts())
	}
	if len(initialTrees) != net.NumHosts() {
		panic(fmt.Sprintf("controller: %d initial trees for %d hosts", len(initialTrees), net.NumHosts()))
	}
	snap := c.store.Commit(c.eng.Now(), func(tx *routing.Tx) {
		tx.SetBaseTrees(initialTrees)
		tx.SetMirror(mirror)
	})
	c.act.InstallSnapshot(snap)
}

// AttachCollector binds a collector to switch s: it receives the routing
// oracle and becomes what Collector(s) returns, the flow table the §3.3
// query loop reads; a replacement (a supervised restart) takes over the
// binding. Its events reach DeliverEvent however the caller routes them.
func (c *Controller) AttachCollector(s int, col *core.Collector) {
	c.collectors[s] = col
	col.SetPortMapper(c.Mapper(s))
}

// Mapper returns the routing oracle for switch s — an epoch-aware view
// of the shared store, the state a supervisor re-shares with every
// replacement collector it builds (§3.2.1's controller→collector
// routing sync). A fresh view is always pinned to the current epoch,
// so a restarted collector resynchronizes by construction.
func (c *Controller) Mapper(s int) *routing.View { return routing.NewView(c.store, s) }

// SetTracer attaches a control-loop tracer: DeliverEvent marks
// delivery and establishes cause context, reroute records decisions
// and actuations against the causing event's span.
func (c *Controller) SetTracer(tr *trace.Tracer) { c.trc = tr }

// DeliverEvent accepts one congestion event into the controller: it is
// counted and fanned out to subscribers. Directly subscribed collectors
// call it synchronously; supervised collectors route events through a
// Deliverer so partitions and delays surface as retries instead of
// silent loss.
func (c *Controller) DeliverEvent(ev core.CongestionEvent) {
	c.Events++
	traced := c.trc != nil && ev.ID != 0
	if traced {
		c.trc.MarkDelivered(ev.ID, c.eng.Now())
		prev := c.curCause
		c.curCause = ev.ID
		defer func() {
			c.curCause = prev
			// If no subscriber committed a reroute, the span ends here.
			c.trc.FinishCause(ev.ID)
		}()
	}
	for _, fn := range c.subs {
		fn(ev)
	}
}

// Collector returns switch s's collector, or nil.
func (c *Controller) Collector(s int) *core.Collector { return c.collectors[s] }

// Subscribe registers an application for congestion events from any
// collector. A directly subscribed collector's events arrive with their
// Flows borrowed (see core.CongestionEvent.Flows).
func (c *Controller) Subscribe(fn func(ev core.CongestionEvent)) {
	c.subs = append(c.subs, fn)
}

// Switch returns switch s when the controller drives the simulated
// data plane, nil behind a custom actuator.
func (c *Controller) Switch(s int) *switchsim.Switch {
	if a, ok := c.act.(*SimActuator); ok {
		return a.Switch(s)
	}
	return nil
}

func (c *Controller) delay(lo, hi units.Duration) units.Duration {
	if hi <= lo {
		return lo
	}
	return lo + units.Duration(c.rng.Int63n(int64(hi-lo)))
}

// RerouteARP repoints srcHost's ARP entry for dstHost at the shadow MAC
// of tree, moving all srcHost→dstHost traffic (§6.2). The new pair
// override is committed immediately; the spoofed unicast ARP actuates
// after the modelled control-channel latency.
func (c *Controller) RerouteARP(now units.Time, srcHost, dstHost, tree int) {
	c.ARPReroutes++
	c.reroute(now, packet.FlowKey{}, srcHost, dstHost, tree, true)
}

// RerouteOF repoints one flow at the shadow MAC of tree via a
// dst-MAC rewrite rule at the source's ingress switch, installed after
// the modelled rule-installation latency.
func (c *Controller) RerouteOF(now units.Time, flow packet.FlowKey, srcHost, dstHost, tree int) {
	c.OFReroutes++
	c.reroute(now, flow, srcHost, dstHost, tree, false)
}

// reroute is the single actuation path for both reroute mechanisms:
// commit the override into the next epoch (activation stamped after
// the modelled control latency, so collectors attribute in-flight
// samples to the old epoch), then schedule exactly the snapshot diff
// for data-plane actuation. A reroute onto the tree the pair/flow
// already rides yields an empty diff and touches nothing.
func (c *Controller) reroute(now units.Time, flow packet.FlowKey, srcHost, dstHost, tree int, viaARP bool) {
	if c.OnReroute != nil {
		c.OnReroute(now, flow, srcHost, dstHost, tree, viaARP)
	}
	var d units.Duration
	if viaARP {
		d = c.delay(c.cfg.ArpDelayMin, c.cfg.ArpDelayMax)
	} else {
		d = c.delay(c.cfg.OFDelayMin, c.cfg.OFDelayMax)
	}
	c.met.observe(viaARP, d)

	// Attribute the decision to the event being fanned out, if any
	// (reroutes from TE's periodic view refresh have no cause and are
	// untraced). Only the causing span's first decision claims it; its
	// actuations then feed the span's actuation stage.
	var traceID uint64
	var dec trace.Decision
	if c.trc != nil && c.curCause != 0 {
		traceID = c.curCause
		dec = trace.Decision{
			ViaARP:  viaARP,
			Flow:    flow,
			NewMAC:  topo.ShadowMAC(dstHost, tree),
			SrcHost: srcHost, DstHost: dstHost, Tree: tree,
		}
		if viaARP {
			// Pair moves carry no 5-tuple; convergence matches on the
			// src/dst pair plus the new shadow-MAC label.
			dec.Flow = packet.FlowKey{SrcIP: topo.HostIP(srcHost), DstIP: topo.HostIP(dstHost)}
		}
	}
	c.commit(now, now.Add(d), func(tx *routing.Tx) {
		if viaARP {
			tx.SetPairTree(srcHost, dstHost, tree)
		} else {
			tx.SetFlowTree(flow, srcHost, dstHost, tree)
		}
	}, traceID, dec, nil)
}

// commit is the actuation tail reroutes and mirror transactions share:
// commit mutate as the next epoch, activating at at; offer the decision
// dec, completed with the new epoch and the diff size, to the span
// traceID (0: untraced); then schedule exactly the snapshot diff to
// land at at, marking each actuation on the span if it claimed the
// decision. onActuated, when set, fires once after the last change
// lands. Returns the diff size.
func (c *Controller) commit(now, at units.Time, mutate func(*routing.Tx), traceID uint64, dec trace.Decision, onActuated func(fire units.Time)) int {
	prev := c.store.Load()
	snap := c.store.Commit(at, mutate)
	diff := snap.DiffFrom(prev)

	claimed := false
	if c.trc != nil && traceID != 0 {
		dec.EpochNew, dec.Changes = snap.Epoch(), len(diff)
		claimed = c.trc.MarkDecided(traceID, now, dec)
	}
	remaining := len(diff)
	for _, ch := range diff {
		c.eng.Schedule(at, sim.Callback(func(fire units.Time) {
			c.act.Apply(fire, ch)
			if claimed {
				c.trc.MarkActuated(traceID, fire)
			}
			remaining--
			if remaining == 0 && onActuated != nil {
				onActuated(fire)
			}
		}), nil)
	}
	return len(diff)
}

// CommitMirror commits a mirror-configuration transaction — the
// governor's shed/tune actuation — through the same epoch/diff path
// reroutes take: commit the next snapshot (activation stamped after the
// modelled management-channel latency, taken from the OpenFlow delay
// model), diff it against the previous epoch, and schedule exactly the
// ChangeMirrorPort entries for data-plane actuation. Returns the diff
// size; a transaction that changed nothing actuates nothing. traceID,
// when nonzero, attributes the decision and actuations to an open
// control-loop span (the caller marks convergence out of band once its
// estimator confirms the reconfiguration took effect). onActuated, when
// set, fires once after the last diff entry lands.
func (c *Controller) CommitMirror(now units.Time, traceID uint64, mutate func(*routing.Tx), onActuated func(fire units.Time)) int {
	d := c.delay(c.cfg.OFDelayMin, c.cfg.OFDelayMax)
	n := c.commit(now, now.Add(d), mutate, traceID, trace.Decision{}, onActuated)
	if n == 0 {
		return 0
	}
	c.MirrorCommits++
	c.met.mirrorDelay.Observe(int64(d))
	return n
}
