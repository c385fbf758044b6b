package te

import (
	"sort"

	"planck/internal/controller"
	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/sim"
	"planck/internal/topo"
	"planck/internal/units"
)

// GFFConfig tunes the polling baseline of §7.1: a global-first-fit
// rerouter that reads per-flow switch counters every Interval and
// greedily re-places every sizable flow, emulating Hedera-class systems
// at 1 s (Poll-1s) and 100 ms (Poll-0.1s) granularity.
type GFFConfig struct {
	// Interval is the polling period.
	Interval units.Duration
}

// MinFlowFraction makes GFF ignore flows smaller than this fraction of
// the line rate (Hedera considers flows above 10% of NIC bandwidth).
const MinFlowFraction float64 = 0.1

// GFF is the polling-based global-first-fit traffic engineer. Current
// flow placements come from the controller's versioned routing store —
// the same snapshot the collectors and PlanckTE read — so the poller
// never drifts from what is actually installed.
type GFF struct {
	ctrl  *controller.Controller
	cfg   GFFConfig
	net   *topo.Network
	store *routing.Store

	lastBytes map[packet.FlowKey]int64
	ticker    *sim.Ticker

	// Polls and Reroutes count scheduler activity.
	Polls    int64
	Reroutes int64
}

// NewGFF starts the poller on the controller's engine.
func NewGFF(ctrl *controller.Controller, cfg GFFConfig) *GFF {
	if cfg.Interval == 0 {
		cfg.Interval = units.Duration(units.Second)
	}
	g := &GFF{
		ctrl:      ctrl,
		cfg:       cfg,
		net:       ctrl.Network(),
		store:     ctrl.RoutingStore(),
		lastBytes: make(map[packet.FlowKey]int64),
	}
	g.ticker = sim.NewTicker(ctrl.Engine(), cfg.Interval, g.poll)
	return g
}

// Stop halts polling.
func (g *GFF) Stop() { g.ticker.Stop() }

// measuredFlow is one polled flow with its estimated demand.
type measuredFlow struct {
	key      packet.FlowKey
	src, dst int
	rate     units.Rate
}

// poll reads edge-switch ingress flow counters, estimates each flow's
// rate over the last interval, and globally first-fits every sizable
// flow onto the tree with room, reserving capacity as it goes.
func (g *GFF) poll(now units.Time) {
	g.Polls++
	snap := g.store.Load()
	var flows []measuredFlow
	seen := make(map[packet.FlowKey]bool)
	for s := 0; s < g.net.NumSwitches(); s++ {
		sw := g.ctrl.Switch(s)
		for key, ctr := range sw.IngressCounters() {
			if seen[key] {
				continue
			}
			src, ok1 := topo.HostOfIP(key.SrcIP)
			dst, ok2 := topo.HostOfIP(key.DstIP)
			if !ok1 || !ok2 || src == dst ||
				src < 0 || src >= g.net.NumHosts() || dst < 0 || dst >= g.net.NumHosts() {
				continue
			}
			// Only count the flow at its ingress edge switch.
			if g.net.Hosts[src].Switch != s {
				continue
			}
			seen[key] = true
			delta := ctr.Bytes - g.lastBytes[key]
			g.lastBytes[key] = ctr.Bytes
			if delta <= 0 {
				continue
			}
			rate := units.RateOf(delta, g.cfg.Interval)
			if float64(rate) < MinFlowFraction*float64(g.net.LineRate) {
				continue
			}
			flows = append(flows, measuredFlow{key: key, src: src, dst: dst, rate: rate})
		}
	}

	// Hedera estimates each flow's natural demand before placing: a
	// crushed flow's measured rate must not make congested links look
	// half empty.
	counts := newEndpointCounts()
	for _, f := range flows {
		counts.add(f.key)
	}
	for i := range flows {
		if d := counts.demand(flows[i].key, g.net.LineRate); d > flows[i].rate {
			flows[i].rate = d
		}
	}

	// Largest flows place first (Hedera's global first fit ordering).
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].rate != flows[j].rate {
			return flows[i].rate > flows[j].rate
		}
		return flows[i].key.String() < flows[j].key.String() // deterministic tie-break
	})

	reserved := make(map[topo.LinkID]units.Rate)
	for _, f := range flows {
		// The snapshot, not a private shadow map, says where the flow
		// currently rides: per-flow override from an earlier GFF pass,
		// else the pair/base tree the controller installed.
		cur := snap.TreeFor(f.key, f.src, f.dst)
		placed := -1
		for tree := 0; tree < snap.NumTrees(); tree++ {
			if g.fits(snap, f, tree, reserved) {
				placed = tree
				break
			}
		}
		if placed < 0 {
			placed = cur // nothing fits: stay put
		}
		g.reserve(snap, f, placed, reserved)
		if placed != cur {
			g.Reroutes++
			g.ctrl.RerouteOF(now, f.key, f.src, f.dst, placed)
		}
	}
}

func (g *GFF) fits(snap *routing.Snapshot, f measuredFlow, tree int, reserved map[topo.LinkID]units.Rate) bool {
	for _, l := range snap.PathFor(f.src, f.dst, tree) {
		if reserved[l]+f.rate > snap.LineRate() {
			return false
		}
	}
	return true
}

func (g *GFF) reserve(snap *routing.Snapshot, f measuredFlow, tree int, reserved map[topo.LinkID]units.Rate) {
	for _, l := range snap.PathFor(f.src, f.dst, tree) {
		reserved[l] += f.rate
	}
}
