package routing_test

import (
	"testing"

	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/topo"
	"planck/internal/units"
)

// labelOracle holds every switch's static MAC table as the topology
// enumerates it (the table a switch is programmed with), beside a view
// of each switch that resolves labels from the route table instead.
type labelOracle struct {
	name    string
	net     *topo.Network
	views   []*routing.View
	entries []map[packet.MAC]int
}

func newLabelOracle(name string, net *topo.Network) *labelOracle {
	st := routing.NewStore(net)
	o := &labelOracle{name: name, net: net}
	for sw := 0; sw < net.NumSwitches(); sw++ {
		o.views = append(o.views, routing.NewView(st, sw))
		o.entries = append(o.entries, net.MACEntries(sw))
	}
	return o
}

func labelOracles() []*labelOracle {
	return []*labelOracle{
		newLabelOracle("fattree16", topo.FatTree16(units.Rate10G)),
		newLabelOracle("fattree-k8", topo.FatTree(8, units.Rate10G)),
	}
}

// check resolves mac on every switch through ResolveOutput (no override
// installed) and demands the MAC table's answer: the port and whether
// there is one, port 0 when not.
func (o *labelOracle) check(t *testing.T, mac packet.MAC) {
	t.Helper()
	key := packet.FlowKey{SrcIP: topo.HostIP(0), DstIP: topo.HostIP(1), SrcPort: 1, DstPort: 2, Proto: packet.IPProtocolTCP}
	for sw, v := range o.views {
		want, wantOK := o.entries[sw][mac]
		if p, _, ok := v.ResolveOutput(0, key, mac); p != want || ok != wantOK {
			t.Fatalf("%s switch %d label %v: ResolveOutput (%d, %v), MAC table (%d, %v)", o.name, sw, mac, p, ok, want, wantOK)
		}
	}
}

// TestLabelPortMatchesMACEntries: resolving a label from the route table
// gives exactly what the switch's MAC table holds, for every host and
// tree label, labels one and two past each end of the host and tree
// ranges, and MACs that are no label at all.
func TestLabelPortMatchesMACEntries(t *testing.T) {
	for _, o := range labelOracles() {
		net := o.net
		for h := 0; h < net.NumHosts()+2; h++ {
			for tr := 0; tr < net.NumTrees+2; tr++ {
				o.check(t, topo.ShadowMAC(h, tr))
			}
		}
		o.check(t, packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
		o.check(t, packet.MAC{0x02, 0, 0, 0, 0, 0}) // host id 0 is never assigned
		o.check(t, packet.MAC{0xde, 0xad, 0, 0, 0, 1})
	}
}

// FuzzLabelPort lets the fuzzer choose all six bytes of the label.
func FuzzLabelPort(f *testing.F) {
	f.Add([]byte{0x02, 0, 0, 0, 0, 1})
	f.Add([]byte{0x02, 3, 0, 0, 0, 16})
	f.Add([]byte{0x02, 7, 0, 0, 0, 129})
	f.Add([]byte{0x02, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xde, 0xad, 0, 0, 0, 1})
	oracles := labelOracles()
	f.Fuzz(func(t *testing.T, b []byte) {
		var mac packet.MAC
		copy(mac[:], b)
		for _, o := range oracles {
			o.check(t, mac)
		}
	})
}
