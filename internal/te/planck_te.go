// Package te implements the paper's traffic-engineering application
// (§6.2) and the baselines it is evaluated against (§7.1):
//
//   - PlanckTE: event-driven greedy rerouting over pre-installed
//     shadow-MAC alternate paths (Algorithm 1), actuated by spoofed ARP
//     or OpenFlow rewrite, with a flow timeout to expunge stale state;
//   - Global First Fit polling at a fixed interval (Poll-1s, Poll-0.1s),
//     emulating Hedera-style schemes that read switch flow counters;
//   - Static (PAST only) needs no code: simply run no TE.
package te

import (
	"bytes"
	"cmp"
	"slices"

	"planck/internal/controller"
	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/sim"
	"planck/internal/topo"
	"planck/internal/units"
)

// Actuator selects the rerouting mechanism of §6.2.
type Actuator int

// Actuators.
const (
	ActuateARP Actuator = iota
	ActuateOpenFlow
)

// PlanckTE's fixed tuning (§7.1).
const (
	// MoveCooldown prevents flapping: a flow is not rerouted again until
	// this long after its last move (covers the in-flight actuation and
	// the controller's settle period, §4.1). It is long enough for the
	// ARP to land, the abandoned path's queue to drain, and the flow's
	// reordering transient to settle before the flow may move again.
	MoveCooldown = 10 * units.Millisecond
	// MinFlowRate excludes traffic below this estimated rate from the
	// network view — pure-ACK reverse streams estimate ≈0 b/s (their
	// sequence numbers never advance) but would otherwise count as flows
	// in the demand estimator and halve every real flow's demand.
	MinFlowRate = 10 * units.Mbps
)

// PlanckTEConfig tunes the application.
type PlanckTEConfig struct {
	// FlowTimeout expunges flows not heard of recently (§6.2 uses 3 ms,
	// approximately the latency of rerouting a flow).
	FlowTimeout units.Duration
	// ViewRefresh is the period of the collector-query loop that keeps
	// the network view complete. Congestion events only describe links
	// above the utilization threshold; flows crushed onto quiet links
	// would otherwise be invisible (their links look free) and never be
	// re-engineered. The paper's controller exposes exactly this query
	// API (§3.3).
	ViewRefresh units.Duration
	// Actuate picks ARP (default) or OpenFlow rewriting.
	Actuate Actuator
	// Source, when non-nil, feeds the view-refresh loop from a
	// network-wide flow source (the collector fleet's aggregation
	// plane) instead of querying per-switch collectors through the
	// controller. Congestion events still arrive through the
	// controller's subscription either way.
	Source NetworkSource
}

// NetworkSource is the fleet-mode flow feed: one merged, network-wide
// iteration over (switch, flow) records with rate estimates.
// *agg.Plane implements it.
type NetworkSource interface {
	EachFlow(fn func(sw int, fi core.FlowInfo, lastSeen units.Time))
}

// DefaultPlanckTEConfig matches §7.1.
func DefaultPlanckTEConfig() PlanckTEConfig {
	return PlanckTEConfig{
		FlowTimeout: 3 * units.Millisecond,
		ViewRefresh: units.Millisecond,
		Actuate:     ActuateARP,
	}
}

// flowView is the controller-side record of one flow (Algorithm 1's
// network state).
type flowView struct {
	key       packet.FlowKey
	src, dst  int // host indices
	tree      int
	rate      units.Rate // latest measured rate (reporting)
	demand    units.Rate // estimated natural demand (placement)
	lastHeard units.Time
	lastMoved units.Time
}

// PlanckTE is the event-driven traffic engineer. It reads alternate
// trees and bottleneck capacities from the controller's versioned
// routing store: each event or refresh pass pins the current snapshot
// once and plans the whole pass against that epoch.
type PlanckTE struct {
	ctrl  *controller.Controller
	cfg   PlanckTEConfig
	net   *topo.Network
	store *routing.Store
	// snap is the snapshot pinned for the current planning pass.
	snap *routing.Snapshot

	view map[packet.FlowKey]*flowView
	// order is refreshView's scratch for the view in key order.
	order []*flowView

	// Reroutes counts route-change actuations issued.
	Reroutes int64
	// EventsHandled counts congestion notifications processed.
	EventsHandled int64
}

// NewPlanckTE attaches the application to a controller's event stream
// and starts its view-refresh query loop.
func NewPlanckTE(ctrl *controller.Controller, cfg PlanckTEConfig) *PlanckTE {
	if cfg.FlowTimeout == 0 {
		cfg = DefaultPlanckTEConfig()
	}
	t := &PlanckTE{
		ctrl:  ctrl,
		cfg:   cfg,
		net:   ctrl.Network(),
		store: ctrl.RoutingStore(),
		view:  make(map[packet.FlowKey]*flowView),
	}
	t.snap = t.store.Load()
	ctrl.Subscribe(t.onCongestion)
	if cfg.ViewRefresh > 0 {
		sim.NewTicker(ctrl.Engine(), cfg.ViewRefresh, t.refreshView)
	}
	return t
}

// refreshView queries every collector's flow table (§3.3's statistics
// API), folds fresh entries into the network view — preferring the most
// recently sampled routing label per flow — and re-engineers flows whose
// current path is overloaded by demand but whose links are too quiet to
// fire events.
func (t *PlanckTE) refreshView(now units.Time) {
	t.snap = t.store.Load()
	type obs struct {
		fi   core.FlowInfo
		seen units.Time
	}
	// Only a flow's ingress edge switch is on every alternate path, so
	// its collector reports the flow's routing label unambiguously and in
	// FIFO order; collectors on an abandoned path keep sampling the old
	// label while their mirror queue drains. Labels therefore come only
	// from the ingress edge.
	best := make(map[packet.FlowKey]obs)
	consider := func(s int, fi core.FlowInfo, seen units.Time) {
		if now.Sub(seen) > t.cfg.FlowTimeout {
			return
		}
		src, ok := topo.HostOfIP(fi.Key.SrcIP)
		if !ok || src < 0 || src >= t.net.NumHosts() || t.net.Hosts[src].Switch != s {
			return
		}
		if b, have := best[fi.Key]; !have || seen > b.seen {
			best[fi.Key] = obs{fi: fi, seen: seen}
		}
	}
	if t.cfg.Source != nil {
		// Fleet mode: one pass over the aggregation plane's merged,
		// already rate-filtered records. The ingress-edge filter in
		// consider applies unchanged, so the fold is exactly the
		// per-collector query's.
		t.cfg.Source.EachFlow(consider)
	} else {
		for s := 0; s < t.net.NumSwitches(); s++ {
			col := t.ctrl.Collector(s)
			if col == nil {
				continue
			}
			s := s
			col.Flows(func(fs *core.FlowState) {
				rate, ok := fs.Rate()
				if !ok {
					return
				}
				consider(s, core.FlowInfo{Key: fs.Key, DstMAC: fs.DstMAC, Rate: rate}, fs.LastSeen)
			})
		}
	}
	for _, o := range best {
		t.updateFlow(now, o.fi)
	}
	t.expire(now)
	t.refreshDemands()
	// Each move changes linkLoad for the flows after it, so the pass
	// visits flows in key order: the same seed makes the same moves.
	t.order = t.order[:0]
	for _, fv := range t.view {
		t.order = append(t.order, fv)
	}
	slices.SortFunc(t.order, func(a, b *flowView) int {
		return cmp.Or(
			bytes.Compare(a.key.SrcIP[:], b.key.SrcIP[:]),
			bytes.Compare(a.key.DstIP[:], b.key.DstIP[:]),
			cmp.Compare(a.key.SrcPort, b.key.SrcPort),
			cmp.Compare(a.key.DstPort, b.key.DstPort),
			cmp.Compare(a.key.Proto, b.key.Proto))
	})
	for _, fv := range t.order {
		if t.pathBottleneck(fv.src, fv.dst, fv.tree, fv) < 0 {
			t.greedyRouteFlow(now, fv)
		}
	}
}

// onCongestion implements Algorithm 1's process_cong_ntfy.
func (t *PlanckTE) onCongestion(ev core.CongestionEvent) {
	t.EventsHandled++
	t.snap = t.store.Load()
	now := ev.Time

	// Update network state from the notification's flow annotations.
	var eventFlows []*flowView
	for _, fi := range ev.Flows {
		fv := t.updateFlow(now, fi)
		if fv != nil {
			eventFlows = append(eventFlows, fv)
		}
	}
	t.expire(now)

	// Refresh demand estimates over the whole view (placement must use
	// what flows want, not what collisions currently let them send).
	t.refreshDemands()

	// Greedily reroute each flow in the notification.
	for _, fv := range eventFlows {
		t.greedyRouteFlow(now, fv)
	}
}

// refreshDemands recomputes each viewed flow's natural demand.
func (t *PlanckTE) refreshDemands() {
	counts := newEndpointCounts()
	for _, fv := range t.view {
		counts.add(fv.key)
	}
	for _, fv := range t.view {
		fv.demand = counts.demand(fv.key, t.snap.LineRate())
	}
}

// updateFlow folds a flow annotation into the view, returning nil for
// flows that cannot be attributed to hosts (non-data traffic).
func (t *PlanckTE) updateFlow(now units.Time, fi core.FlowInfo) *flowView {
	if fi.Rate < MinFlowRate {
		return nil // ACK streams and mice play no part in engineering
	}
	src, ok := topo.HostOfIP(fi.Key.SrcIP)
	if !ok || src < 0 || src >= t.net.NumHosts() {
		return nil
	}
	dst, labelTree, ok := topo.TreeOfMAC(fi.DstMAC)
	if !ok || labelTree >= t.net.NumTrees || dst >= t.net.NumHosts() || dst == src {
		return nil
	}
	fv := t.view[fi.Key]
	if fv == nil {
		fv = &flowView{key: fi.Key, src: src, dst: dst, lastMoved: -1 << 62}
		t.view[fi.Key] = fv
	}
	// The routing snapshot is authoritative for which tree the flow
	// rides: collectors on a flow's old path keep reporting its
	// previous routing label for a freshness window after a reroute,
	// but the store already carries the committed override. Reading
	// the tree from the pinned snapshot (instead of trusting labels
	// and suppressing them during a cooldown window, as before the
	// versioned routing plane) removes the stale-label flap hazard by
	// construction; tree from the sampled label is kept above only to
	// validate that the annotation is host traffic.
	fv.tree = t.snap.TreeFor(fi.Key, src, dst)
	fv.rate = fi.Rate
	fv.lastHeard = now
	return fv
}

// expire implements remove_old_flows.
func (t *PlanckTE) expire(now units.Time) {
	for k, fv := range t.view {
		if now.Sub(fv.lastHeard) > t.cfg.FlowTimeout {
			delete(t.view, k)
		}
	}
}

// linkLoad sums the estimated demands of flows (other than skip) whose
// current path crosses the link; it is evaluated lazily per link.
func (t *PlanckTE) linkLoad(l topo.LinkID, skip *flowView) units.Rate {
	var load units.Rate
	for _, fv := range t.view {
		if fv == skip {
			continue
		}
		for _, fl := range t.snap.PathFor(fv.src, fv.dst, fv.tree) {
			if fl == l {
				load += fv.demand
				break
			}
		}
	}
	return load
}

// pathBottleneck is DevoFlow's find_path_btlneck: the minimum residual
// capacity along the path, ignoring the flow being placed. Residuals are
// allowed to go negative so the greedy step can still prefer a
// 2-flow link over a 3-flow link when nothing is free.
func (t *PlanckTE) pathBottleneck(src, dst, tree int, skip *flowView) units.Rate {
	btl := t.snap.LineRate()
	for _, l := range t.snap.PathFor(src, dst, tree) {
		residual := t.snap.LineRate() - t.linkLoad(l, skip)
		if residual < btl {
			btl = residual
		}
	}
	return btl
}

// greedyRouteFlow implements Algorithm 1's greedy_route_flow: take the
// alternate path with the strictly largest expected bottleneck capacity.
func (t *PlanckTE) greedyRouteFlow(now units.Time, fv *flowView) {
	if now.Sub(fv.lastMoved) < MoveCooldown {
		return
	}
	bestTree := fv.tree
	bestBtl := t.pathBottleneck(fv.src, fv.dst, fv.tree, fv)
	for tree := 0; tree < t.snap.NumTrees(); tree++ {
		if tree == fv.tree {
			continue
		}
		if btl := t.pathBottleneck(fv.src, fv.dst, tree, fv); btl > bestBtl {
			bestTree = tree
			bestBtl = btl
		}
	}
	if bestTree == fv.tree {
		return
	}
	fv.tree = bestTree
	fv.lastMoved = now
	t.Reroutes++
	switch t.cfg.Actuate {
	case ActuateOpenFlow:
		t.ctrl.RerouteOF(now, fv.key, fv.src, fv.dst, bestTree)
	default:
		t.ctrl.RerouteARP(now, fv.src, fv.dst, bestTree)
	}
}

// ViewSize reports the number of live flows in the network view.
func (t *PlanckTE) ViewSize() int { return len(t.view) }
