package controller

import (
	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/sim"
	"planck/internal/switchsim"
	"planck/internal/tcpsim"
	"planck/internal/topo"
	"planck/internal/units"
)

// SimActuator realizes routing snapshots on the simulated data plane:
// it is the only place the controller package touches concrete
// switchsim/tcpsim types. A deployment would swap in an OpenFlow
// driver implementing routing.Actuator without touching the
// controller, TE, or the collectors.
type SimActuator struct {
	eng      *sim.Engine
	net      *topo.Network
	switches []*switchsim.Switch
	hosts    []*tcpsim.Host
}

var _ routing.Actuator = (*SimActuator)(nil)

// NewSimActuator wires the actuator over an assembled data plane. The
// switches and hosts slices must be indexed consistently with net.
func NewSimActuator(eng *sim.Engine, net *topo.Network, switches []*switchsim.Switch, hosts []*tcpsim.Host) *SimActuator {
	return &SimActuator{eng: eng, net: net, switches: switches, hosts: hosts}
}

// Switch returns switch s.
func (a *SimActuator) Switch(s int) *switchsim.Switch { return a.switches[s] }

// InstallSnapshot implements routing.Actuator: program every switch
// with the MAC entries of all routing trees, the egress shadow-MAC
// restore rules, edge-port marking, and — when the snapshot says so —
// oversubscribed mirroring of every data port to the switch's monitor
// port; then point every host's ARP cache at each destination's
// currently assigned tree.
func (a *SimActuator) InstallSnapshot(snap *routing.Snapshot) {
	for s, sw := range a.switches {
		sw.InstallMACs(snap.MACEntries(s))
		sw.InstallRewrites(snap.EgressRewrites(s))
		for p, ep := range a.net.Ports[s] {
			if ep.Kind == topo.ToHost {
				sw.SetEdgePort(p, true)
			}
		}
		if snap.Mirror() && a.net.MonitorPort[s] >= 0 {
			sw.EnableMirror(a.net.MonitorPort[s], nil)
		}
	}
	// Per-port mirror overrides (governor sheds/tunes) are part of the
	// snapshot too: a full install must reproduce them, so a reinstalled
	// data plane matches the committed state bit for bit.
	snap.EachMirrorOverride(func(s, port int, cfg routing.MirrorPortConfig) {
		sw := a.switches[s]
		sw.SetPortMirrored(port, cfg.Mirrored)
		sw.SetPortMirrorRate(a.eng.Now(), port, cfg.TargetRate)
	})
	for i, h := range a.hosts {
		for d := 0; d < a.net.NumHosts(); d++ {
			if d == i {
				continue
			}
			h.SetNeighbor(topo.HostIP(d), topo.ShadowMAC(d, snap.PairTree(i, d)))
		}
	}
}

// Apply implements routing.Actuator: actuate one snapshot-diff entry
// at time fire. The two change kinds map onto the paper's two reroute
// mechanisms (§6.2) — this is the only point where they differ.
func (a *SimActuator) Apply(fire units.Time, ch routing.Change) {
	switch ch.Kind {
	case routing.ChangePairTree:
		// Spoofed unicast ARP: repoint Src's ARP entry for Dst at the
		// shadow MAC of Tree. The ARP packet itself traverses the
		// (possibly congested) data network from Src's edge switch.
		attach := a.net.Hosts[ch.Src]
		sw := a.switches[attach.Switch]
		pkt := a.eng.NewPacket()
		pkt.Kind = sim.KindARP
		pkt.SrcMAC = packet.MAC{0x02, 0xff, 0, 0, 0, 0xfe} // controller's MAC
		pkt.DstMAC = a.hosts[ch.Src].MAC()
		pkt.WireLen = packet.EthernetHeaderLen + packet.ARPBodyLen
		pkt.ARP = packet.ARP{
			Op:        packet.ARPRequest,
			SenderMAC: topo.ShadowMAC(ch.Dst, ch.Tree),
			SenderIP:  topo.HostIP(ch.Dst),
			TargetMAC: a.hosts[ch.Src].MAC(),
			TargetIP:  topo.HostIP(ch.Src),
		}
		pkt.SentAt = fire
		sw.Inject(fire, attach.Port, pkt)
	case routing.ChangeFlowTree:
		// OpenFlow rewrite rule at the flow's ingress switch: relabel
		// the flow's packets onto Tree's shadow MAC for Dst.
		attach := a.net.Hosts[ch.Src]
		sw := a.switches[attach.Switch]
		sw.InstallFlowRule(switchsim.FlowRule{
			Match:      ch.Flow,
			RewriteDst: true,
			NewDst:     topo.ShadowMAC(ch.Dst, ch.Tree),
		})
	case routing.ChangeMirrorPort:
		// Management-plane mirror reconfiguration: shed/restore the port
		// from the mirror session and install or clear its per-port
		// sample-rate bucket.
		sw := a.switches[ch.Switch]
		sw.SetPortMirrored(ch.Port, ch.Mirror.Mirrored)
		sw.SetPortMirrorRate(fire, ch.Port, ch.Mirror.TargetRate)
	}
}
