package routing

import (
	"sync/atomic"

	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/topo"
	"planck/internal/units"
)

// View is a per-switch window onto a Store: the routing oracle a
// collector uses to infer ports from sampled packets (§3.2.1). A View
// pins one published history per Refresh — one atomic load — and then
// resolves every sample of the batch against that pin, lock-free and
// allocation-free. Views are single-goroutine: pinning mutates the
// view, so concurrent readers each open their own with NewView.
type View struct {
	store *Store
	sw    int
	h     *history
}

var _ core.RouteResolver = (*View)(nil)

// NewView opens a view of st scoped to switch sw, pinned to the
// current epoch.
func NewView(st *Store, sw int) *View {
	return &View{store: st, sw: sw, h: st.cur.Load()}
}

// Refresh implements core.RouteResolver: re-pin to the currently
// published history and report its epoch.
func (v *View) Refresh() uint64 {
	v.h = v.store.cur.Load()
	return v.h.snaps[0].epoch
}

// EpochRef implements core.RouteResolver: the store's published-epoch
// counter, letting collectors detect "no reroute since last sample"
// with one inlined atomic load instead of a Refresh call.
func (v *View) EpochRef() *atomic.Uint64 { return &v.store.epoch }

// labelPort answers what switch sw's MAC table (topo.Network.MACEntries)
// holds for dst, without a table: a shadow MAC names a (host, tree)
// pair, and its entry is the tree's route toward the host. Every tree is
// installed on every switch it spans (§4.2), so a label decoding to a
// known host and tree is in the table exactly when sw is on the tree;
// anything else — a foreign MAC, an unknown host or tree — is not.
func labelPort(net *topo.Network, sw int, dst packet.MAC) (int, bool) {
	host, tree, ok := topo.TreeOfMAC(dst)
	if !ok || host >= net.NumHosts() || tree >= net.NumTrees {
		return 0, false
	}
	if p := net.RoutePort(tree, host, sw); p >= 0 {
		return p, true
	}
	return 0, false
}

// ResolveOutput implements core.RouteResolver. The label on a mirrored
// sample is what the switch actually forwarded on (the mirror tap sits
// after the flow-rule rewrite), so the static table is authoritative —
// except at this flow's ingress switch during a per-flow override,
// where samples timestamped before the rule landed still carry the old
// label while the snapshot live at t already routes the flow onto its
// override tree. Resolving through the epoch live at t charges each
// sample to the path its bytes actually took.
func (v *View) ResolveOutput(t units.Time, key packet.FlowKey, dst packet.MAC) (int, uint64, bool) {
	snap := v.h.at(t)
	if o, ok := snap.flowTrees[key]; ok && snap.net.Hosts[o.src].Switch == v.sw {
		if p := snap.net.RoutePort(int(o.tree), int(o.dst), v.sw); p >= 0 {
			return p, snap.epoch, true
		}
	}
	p, ok := labelPort(snap.net, v.sw, dst)
	return p, snap.epoch, ok
}
