// Package topo describes network topologies and computes the PAST-style
// per-address spanning-tree routes and shadow-MAC alternate paths the
// paper's traffic-engineering application uses (§6.2).
//
// The flagship topology is the paper's 16-host, three-tier fat-tree built
// from twenty 5-port logical switches (8 edge, 8 aggregation, 4 core),
// each giving up one port for monitoring. Each of the four core switches
// defines an edge-disjoint spanning tree, which is exactly the paper's
// set of four pre-installed alternate paths per destination.
package topo

import (
	"fmt"

	"planck/internal/packet"
	"planck/internal/units"
)

// EndpointKind classifies what a switch port connects to.
type EndpointKind uint8

// Endpoint kinds.
const (
	Unused EndpointKind = iota
	ToSwitch
	ToHost
	ToMonitor
)

// Endpoint is the far side of a switch port.
type Endpoint struct {
	Kind   EndpointKind
	Switch int // for ToSwitch: peer switch
	Port   int // for ToSwitch: peer port
	Host   int // for ToHost: host index
}

// Attach records where a host plugs in.
type Attach struct {
	Switch int
	Port   int
}

// LinkID identifies a directed link by its transmitting switch port.
// Host NICs are not LinkIDs; the first hop of every alternate path is the
// same host uplink, so it never differentiates path choices.
type LinkID struct {
	Switch int
	Port   int
}

// String renders the link for logs.
func (l LinkID) String() string { return fmt.Sprintf("s%d:p%d", l.Switch, l.Port) }

// Network is a static topology description plus its routing trees.
type Network struct {
	// Name describes the topology.
	Name string
	// LineRate applies to every link.
	LineRate units.Rate
	// SwitchNames, indexed by switch.
	SwitchNames []string
	// Ports[s][p] is the endpoint of switch s port p.
	Ports [][]Endpoint
	// Hosts[h] is where host h attaches.
	Hosts []Attach
	// MonitorPort[s] is switch s's monitor port, or -1.
	MonitorPort []int
	// NumTrees is the number of routing trees (1 base + alternates).
	NumTrees int
	// Pods is the pod count for pod-structured topologies (fat-trees);
	// 0 when the topology has no pod structure.
	Pods int

	// routes[t][d][s] is the output port at switch s toward host d under
	// tree t, or -1 when s is not on that tree.
	routes [][][]int
	// podOf[s] is the pod switch s belongs to, or -1 for core switches;
	// nil when the topology has no pod structure.
	podOf []int
}

// PodOfSwitch returns the pod switch s belongs to, or -1 for switches
// outside any pod (core tier, or topologies without pod structure).
func (n *Network) PodOfSwitch(s int) int {
	if n.podOf == nil || s < 0 || s >= len(n.podOf) {
		return -1
	}
	return n.podOf[s]
}

// NumSwitches returns the switch count.
func (n *Network) NumSwitches() int { return len(n.Ports) }

// NumHosts returns the host count.
func (n *Network) NumHosts() int { return len(n.Hosts) }

// ShadowMAC returns the MAC addressing host h via tree t; tree 0 is the
// base (real) address.
func ShadowMAC(h, t int) packet.MAC {
	id := h + 1 // 1-based so the zero MAC is never a host address
	return packet.MAC{0x02, byte(t), 0x00, 0x00, byte(id >> 8), byte(id)}
}

// TreeOfMAC inverts ShadowMAC. ok is false for foreign MACs, including
// the zero host id: ShadowMAC ids are 1-based, so a structurally valid
// MAC carrying id 0 was never assigned to a host. With that rejection
// TreeOfMAC is a total inverse over the host/tree domain — ok implies
// ShadowMAC(host, tree) == m with host >= 0 (property- and fuzz-tested
// in shadowmac_prop_test.go).
func TreeOfMAC(m packet.MAC) (host, tree int, ok bool) {
	if m[0] != 0x02 || m[2] != 0 || m[3] != 0 {
		return 0, 0, false
	}
	id := int(m[4])<<8 | int(m[5])
	if id == 0 {
		return 0, 0, false
	}
	return id - 1, int(m[1]), true
}

// HostIP returns host h's IP address.
func HostIP(h int) packet.IPv4 {
	id := h + 1
	return packet.IPv4{10, 0, byte(id >> 8), byte(id)}
}

// HostOfIP inverts HostIP.
func HostOfIP(ip packet.IPv4) (int, bool) {
	if ip[0] != 10 || ip[1] != 0 {
		return 0, false
	}
	return (int(ip[2])<<8 | int(ip[3])) - 1, true
}

// RoutePort returns the output port at switch s toward host d under tree
// t, or -1 when s does not participate in the tree.
func (n *Network) RoutePort(tree, dst, sw int) int { return n.routes[tree][dst][sw] }

// PathFor returns the switch egress links a packet from src to dst under
// tree t traverses, starting at src's edge switch. It panics on a routing
// loop, which would be a tree-construction bug.
func (n *Network) PathFor(src, dst, tree int) []LinkID {
	if src == dst {
		return nil
	}
	var path []LinkID
	sw := n.Hosts[src].Switch
	for hops := 0; ; hops++ {
		if hops > len(n.Ports) {
			panic(fmt.Sprintf("topo: routing loop for %d->%d tree %d", src, dst, tree))
		}
		out := n.routes[tree][dst][sw]
		if out < 0 {
			panic(fmt.Sprintf("topo: no route at switch %d for %d->%d tree %d", sw, src, dst, tree))
		}
		path = append(path, LinkID{Switch: sw, Port: out})
		ep := n.Ports[sw][out]
		switch ep.Kind {
		case ToHost:
			if ep.Host != dst {
				panic(fmt.Sprintf("topo: tree %d delivers %d->%d to host %d", tree, src, dst, ep.Host))
			}
			return path
		case ToSwitch:
			sw = ep.Switch
		default:
			panic(fmt.Sprintf("topo: tree %d routes %d->%d into %v", tree, src, dst, ep.Kind))
		}
	}
}

// MACEntries enumerates the (MAC, outPort) forwarding entries switch s
// needs: one per (destination, tree) pair that s participates in.
func (n *Network) MACEntries(s int) map[packet.MAC]int {
	out := make(map[packet.MAC]int)
	for t := 0; t < n.NumTrees; t++ {
		for d := 0; d < n.NumHosts(); d++ {
			if p := n.routes[t][d][s]; p >= 0 {
				out[ShadowMAC(d, t)] = p
			}
		}
	}
	return out
}

// EgressRewrites enumerates the shadow->real restore rules for switch s:
// one per non-base tree per host attached to s.
func (n *Network) EgressRewrites(s int) map[packet.MAC]packet.MAC {
	out := make(map[packet.MAC]packet.MAC)
	for h, at := range n.Hosts {
		if at.Switch != s {
			continue
		}
		for t := 1; t < n.NumTrees; t++ {
			out[ShadowMAC(h, t)] = ShadowMAC(h, 0)
		}
	}
	return out
}
