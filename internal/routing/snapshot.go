// Package routing is the versioned control-plane state shared by the
// controller, the collectors, and traffic engineering.
//
// A Snapshot is an immutable, epoch-numbered view of everything a
// consumer needs to interpret or steer traffic: the topology, the base
// routing-tree assignment per destination host, the pair- and per-flow
// tree overrides installed by reroutes, the mirror setting, and the
// static shadow-MAC forwarding tables. Snapshots are published through a
// Store (atomic pointer, lock-free readers, single-writer Commit) and
// resolved on the collector hot path through a per-switch View.
//
// The epoch discipline is what keeps utilization attribution honest
// across reroutes: a sample is attributed to the snapshot that was live
// at the sample's timestamp, not to whatever state happens to be
// current when the batch is processed, so batching cannot change which
// link a byte is charged to (the serial-equivalence and reroute-oracle
// tests pin this down).
package routing

import (
	"sort"

	"planck/internal/packet"
	"planck/internal/topo"
	"planck/internal/units"
)

// pairKey identifies a src→dst host pair for ARP-level overrides.
type pairKey struct {
	src, dst int32
}

// mirrorKey identifies one (switch, output port) in the mirror-config
// override table.
type mirrorKey struct {
	sw, port int32
}

// MirrorPortConfig is one output port's mirror configuration within a
// snapshot — the actuation plane's second primitive besides reroutes.
// The construction-time switchsim defaults (mirror every data port,
// oversubscribed) are the snapshot default; overrides shed ports from
// the mirrored set or tune their admitted sample rate.
type MirrorPortConfig struct {
	// Mirrored reports whether packets switched to this port are
	// replicated to the monitor port.
	Mirrored bool
	// TargetRate, when positive, pre-thins this port's mirror copies
	// through a per-port token bucket (§9.2 "rate of samples") instead
	// of letting the shared monitor queue overflow. Zero inherits the
	// switch's construction-time behavior (oversubscribed, or the
	// switch-wide MirrorTargetRate if one is configured).
	TargetRate units.Rate
}

// flowOverride records a per-flow tree override and the host pair it
// was installed for (the ingress switch is derived from src).
type flowOverride struct {
	src, dst, tree int32
}

// Snapshot is one immutable version of the routing state. All fields
// are read-only after Commit publishes the snapshot; copy-on-write in
// Tx guarantees older epochs never observe later mutations.
type Snapshot struct {
	epoch uint64
	// since is the activation time: the snapshot governs samples with
	// t >= since, until a newer snapshot's activation.
	since units.Time
	net   *topo.Network

	// trees is the base routing tree per destination host.
	trees []int
	// pairTrees overrides the tree for all traffic of a src→dst host
	// pair (installed by ARP reroutes).
	pairTrees map[pairKey]flowOverride
	// flowTrees overrides the tree for a single flow (installed by
	// OpenFlow dst-MAC rewrite rules at the flow's ingress switch).
	flowTrees map[packet.FlowKey]flowOverride

	mirror bool
	// mirrorCfg holds per-(switch, port) mirror-config overrides on top
	// of the global mirror setting. Empty on every snapshot that never
	// saw a mirror commit, so reroute-only stores diff identically to
	// the pre-mirror-plane behavior.
	mirrorCfg map[mirrorKey]MirrorPortConfig
}

// Epoch is the snapshot's monotone version number. Epoch 0 is the
// empty pre-install state every Store starts from.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumTrees reports how many precomputed routing trees exist.
func (s *Snapshot) NumTrees() int { return s.net.NumTrees }

// LineRate is the uniform link capacity of the topology.
func (s *Snapshot) LineRate() units.Rate { return s.net.LineRate }

// Mirror reports whether egress mirroring to the monitor port is on.
func (s *Snapshot) Mirror() bool { return s.mirror }

// EachMirrorOverride visits every explicit mirror-config override in
// deterministic (switch, port) order — the installer's iteration.
func (s *Snapshot) EachMirrorOverride(fn func(sw, port int, cfg MirrorPortConfig)) {
	keys := make([]mirrorKey, 0, len(s.mirrorCfg))
	for k := range s.mirrorCfg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sw != keys[j].sw {
			return keys[i].sw < keys[j].sw
		}
		return keys[i].port < keys[j].port
	})
	for _, k := range keys {
		fn(int(k.sw), int(k.port), s.mirrorCfg[k])
	}
}

// BaseTree returns the base routing tree for a destination host.
func (s *Snapshot) BaseTree(dst int) int {
	if dst < 0 || dst >= len(s.trees) {
		return 0
	}
	return s.trees[dst]
}

// PairTree returns the tree carrying src→dst traffic that has no
// per-flow override: the pair override if one is installed, else the
// destination's base tree.
func (s *Snapshot) PairTree(src, dst int) int {
	if o, ok := s.pairTrees[pairKey{int32(src), int32(dst)}]; ok {
		return int(o.tree)
	}
	return s.BaseTree(dst)
}

// TreeFor resolves the tree a flow rides in this snapshot: per-flow
// override first, then the pair override, then the base tree.
func (s *Snapshot) TreeFor(key packet.FlowKey, src, dst int) int {
	if o, ok := s.flowTrees[key]; ok {
		return int(o.tree)
	}
	return s.PairTree(src, dst)
}

// PathFor returns the directed links of src→dst traffic on tree.
func (s *Snapshot) PathFor(src, dst, tree int) []topo.LinkID {
	return s.net.PathFor(src, dst, tree)
}

// MACEntries returns the static label→port table to program on switch
// s (delegates to the topology; identical across epochs).
func (s *Snapshot) MACEntries(sw int) map[packet.MAC]int { return s.net.MACEntries(sw) }

// EgressRewrites returns the shadow→base MAC restore table for the
// egress edge of switch sw.
func (s *Snapshot) EgressRewrites(sw int) map[packet.MAC]packet.MAC {
	return s.net.EgressRewrites(sw)
}

// ChangeKind discriminates the two actuation primitives a snapshot
// diff can demand.
type ChangeKind uint8

const (
	// ChangePairTree repoints all src→dst traffic onto Tree; the
	// data-plane actuation is a spoofed unicast ARP reply to Src.
	ChangePairTree ChangeKind = iota
	// ChangeFlowTree repoints a single flow onto Tree; the actuation
	// is a dst-MAC rewrite flow rule at Src's ingress switch.
	ChangeFlowTree
	// ChangeMirrorPort reconfigures one port's mirror session on one
	// switch (shed from / restore to the mirrored set, or tune its
	// admitted sample rate); the actuation is a management-plane mirror
	// reconfiguration at the switch.
	ChangeMirrorPort
)

// Change is one actuation step derived from a snapshot diff.
type Change struct {
	Kind ChangeKind
	// Flow is set for ChangeFlowTree only.
	Flow           packet.FlowKey
	Src, Dst, Tree int
	// Switch, Port, and Mirror are set for ChangeMirrorPort only: the
	// new mirror configuration of output port Port on switch Switch.
	Switch, Port int
	Mirror       MirrorPortConfig
}

// DiffFrom lists the overrides present in s that prev does not carry
// (or carries with a different tree), in a deterministic order. The
// result is exactly the actuation needed to take the data plane from
// prev to s; a commit that changed nothing yields an empty diff and
// therefore no actuation.
func (s *Snapshot) DiffFrom(prev *Snapshot) []Change {
	var out []Change
	for pk, o := range s.pairTrees {
		if po, ok := prev.pairTrees[pk]; !ok || po.tree != o.tree {
			out = append(out, Change{Kind: ChangePairTree, Src: int(pk.src), Dst: int(pk.dst), Tree: int(o.tree)})
		}
	}
	for fk, o := range s.flowTrees {
		if po, ok := prev.flowTrees[fk]; !ok || po.tree != o.tree {
			out = append(out, Change{Kind: ChangeFlowTree, Flow: fk, Src: int(o.src), Dst: int(o.dst), Tree: int(o.tree)})
		}
	}
	for mk, cfg := range s.mirrorCfg {
		if pc, ok := prev.mirrorCfg[mk]; !ok || pc != cfg {
			out = append(out, Change{Kind: ChangeMirrorPort, Switch: int(mk.sw), Port: int(mk.port), Mirror: cfg})
		}
	}
	// An override cleared by this commit restores the port to the
	// snapshot default — that restoration is itself actuation.
	for mk := range prev.mirrorCfg {
		if _, ok := s.mirrorCfg[mk]; !ok {
			out = append(out, Change{Kind: ChangeMirrorPort, Switch: int(mk.sw), Port: int(mk.port),
				Mirror: MirrorPortConfig{Mirrored: s.mirror}})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Kind == ChangeMirrorPort {
			if a.Switch != b.Switch {
				return a.Switch < b.Switch
			}
			return a.Port < b.Port
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return flowLess(a.Flow, b.Flow)
	})
	return out
}

func flowLess(a, b packet.FlowKey) bool {
	if a.SrcIP != b.SrcIP {
		return a.SrcIP.U32() < b.SrcIP.U32()
	}
	if a.DstIP != b.DstIP {
		return a.DstIP.U32() < b.DstIP.U32()
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// Tx mutates a pending snapshot inside Store.Commit. Maps are cloned
// lazily on first write so read-mostly commits stay cheap and earlier
// epochs stay frozen.
type Tx struct {
	snap                          *Snapshot
	ownPairs, ownFlows, ownMirror bool
}

// SetBaseTrees replaces the base tree assignment (one entry per host).
// The slice is copied.
func (tx *Tx) SetBaseTrees(trees []int) {
	cp := make([]int, len(trees))
	copy(cp, trees)
	tx.snap.trees = cp
}

// SetMirror flips egress mirroring to the monitor port.
func (tx *Tx) SetMirror(on bool) { tx.snap.mirror = on }

// SetPairTree overrides the tree for all src→dst traffic.
func (tx *Tx) SetPairTree(src, dst, tree int) {
	if !tx.ownPairs {
		cp := make(map[pairKey]flowOverride, len(tx.snap.pairTrees)+1)
		for k, v := range tx.snap.pairTrees {
			cp[k] = v
		}
		tx.snap.pairTrees = cp
		tx.ownPairs = true
	}
	tx.snap.pairTrees[pairKey{int32(src), int32(dst)}] = flowOverride{int32(src), int32(dst), int32(tree)}
}

// SetFlowTree overrides the tree for a single flow of the src→dst pair.
func (tx *Tx) SetFlowTree(flow packet.FlowKey, src, dst, tree int) {
	if !tx.ownFlows {
		cp := make(map[packet.FlowKey]flowOverride, len(tx.snap.flowTrees)+1)
		for k, v := range tx.snap.flowTrees {
			cp[k] = v
		}
		tx.snap.flowTrees = cp
		tx.ownFlows = true
	}
	tx.snap.flowTrees[flow] = flowOverride{int32(src), int32(dst), int32(tree)}
}

// SetMirrorPort installs (or replaces) the mirror-config override for
// output port p on switch sw — the governor's shed/tune primitive.
func (tx *Tx) SetMirrorPort(sw, port int, cfg MirrorPortConfig) {
	if !tx.ownMirror {
		cp := make(map[mirrorKey]MirrorPortConfig, len(tx.snap.mirrorCfg)+1)
		for k, v := range tx.snap.mirrorCfg {
			cp[k] = v
		}
		tx.snap.mirrorCfg = cp
		tx.ownMirror = true
	}
	tx.snap.mirrorCfg[mirrorKey{int32(sw), int32(port)}] = cfg
}
