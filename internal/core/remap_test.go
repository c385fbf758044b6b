package core

import (
	"testing"

	"planck/internal/packet"
	"planck/internal/units"
)

// Table-driven coverage for remapFlowAt/removeFlow when the controller's
// routing state changes mid-flow — the PlanckTE reroute case (§4):
// the controller installs new routing state and shares it with the
// collector, which must immediately move each live flow's utilization
// contribution to its new egress link, without waiting for the flow's
// next sample.
func TestPortMapperSwapRemapsMidFlow(t *testing.T) {
	macC := packet.MAC{0x02, 0, 0, 0, 0, 3}
	cases := []struct {
		name     string
		before   staticMapper
		after    staticMapper
		wantPre  int // port after streaming under `before`
		wantPost int // port right after SetPortMapper(after), no new samples
	}{
		{
			name:     "mapped to different port",
			before:   staticMapper{macB.U64(): 2},
			after:    staticMapper{macB.U64(): 3},
			wantPre:  2,
			wantPost: 3,
		},
		{
			name:     "mapped to same port is stable",
			before:   staticMapper{macB.U64(): 2},
			after:    staticMapper{macB.U64(): 2, macC.U64(): 1},
			wantPre:  2,
			wantPost: 2,
		},
		{
			name:     "route withdrawn: flow becomes unmapped",
			before:   staticMapper{macB.U64(): 2},
			after:    staticMapper{macC.U64(): 1},
			wantPre:  2,
			wantPost: -1,
		},
		{
			name:     "route appears for a previously unmapped flow",
			before:   staticMapper{macC.U64(): 1},
			after:    staticMapper{macB.U64(): 3},
			wantPre:  -1,
			wantPost: 3,
		},
	}
	key := packet.FlowKey{SrcIP: ipA, DstIP: ipB, SrcPort: 1000, DstPort: 2000, Proto: packet.IPProtocolTCP}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{SwitchName: "sw0", NumPorts: 4, LinkRate: units.Rate10G})
			c.SetPortMapper(tc.before)
			var t0 units.Time
			var seq uint32
			for i := 0; i < 1500; i++ {
				if err := c.Ingest(t0, tcpFrame(seq, 1460)); err != nil {
					t.Fatal(err)
				}
				seq += 1460
				t0 = t0.Add(units.Duration(1230))
			}
			f := c.Flow(key)
			if f == nil || f.OutPort() != tc.wantPre {
				t.Fatalf("pre-swap port %d, want %d", f.OutPort(), tc.wantPre)
			}
			rate, ok := f.Rate()
			if !ok {
				t.Fatal("no rate estimate before swap")
			}

			c.SetPortMapper(tc.after)

			if got := f.OutPort(); got != tc.wantPost {
				t.Fatalf("post-swap port %d, want %d", got, tc.wantPost)
			}
			// The utilization contribution must follow the flow, with no
			// new sample in between.
			for p := 0; p < 4; p++ {
				want := units.Rate(0)
				if p == tc.wantPost {
					want = rate
				}
				if got := c.LinkUtilization(p); got != want {
					t.Fatalf("port %d utilization %v, want %v", p, got, want)
				}
			}
			if tc.wantPost >= 0 {
				fl := c.FlowsOnPort(tc.wantPost)
				if len(fl) != 1 || fl[0].Key != key || fl[0].OutPort != tc.wantPost {
					t.Fatalf("flows on port %d: %+v", tc.wantPost, fl)
				}
			}
			// The rate estimate itself must survive the remap untouched.
			if r, ok := f.Rate(); !ok || r != rate {
				t.Fatalf("rate changed across remap: %v -> %v", rate, r)
			}
		})
	}
}

// Multiple flows sharing and leaving a port exercise removeFlow's
// swap-remove: remapping one flow must not disturb its neighbours.
func TestRemapLeavesNeighboursIntact(t *testing.T) {
	shadow := packet.MAC{0x02, 1, 0, 0, 0, 2}
	c := New(Config{SwitchName: "sw0", NumPorts: 4, LinkRate: units.Rate10G})
	c.SetPortMapper(staticMapper{macB.U64(): 2, shadow.U64(): 3})
	var t0 units.Time
	seqs := make([]uint32, 5)
	frame := func(i int, mac packet.MAC) []byte {
		b := packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: mac, SrcIP: ipA, DstIP: ipB,
			SrcPort: uint16(1000 + i), DstPort: 2000, Seq: seqs[i],
			Flags: packet.TCPAck, PayloadLen: 1460,
		})
		seqs[i] += 1460
		return b
	}
	// Five flows interleaved on port 2.
	for step := 0; step < 1500; step++ {
		for i := 0; i < 5; i++ {
			if err := c.Ingest(t0, frame(i, macB)); err != nil {
				t.Fatal(err)
			}
			t0 = t0.Add(units.Duration(1230))
		}
	}
	if got := len(c.FlowsOnPort(2)); got != 5 {
		t.Fatalf("flows on port 2: %d", got)
	}
	// Reroute flows 1 and 3 (middle of the port list) via a label change.
	for step := 0; step < 200; step++ {
		for _, i := range []int{1, 3} {
			if err := c.Ingest(t0, frame(i, shadow)); err != nil {
				t.Fatal(err)
			}
			t0 = t0.Add(units.Duration(1230))
		}
	}
	if got := len(c.FlowsOnPort(2)); got != 3 {
		t.Fatalf("port 2 after reroute: %d flows", got)
	}
	if got := len(c.FlowsOnPort(3)); got != 2 {
		t.Fatalf("port 3 after reroute: %d flows", got)
	}
	// The three remaining port-2 flows are exactly 0, 2, 4 and their
	// utilization sum matches a from-scratch recomputation.
	var want units.Rate
	seen := map[uint16]bool{}
	for _, fi := range c.FlowsOnPort(2) {
		seen[fi.Key.SrcPort] = true
		want += fi.Rate
	}
	for _, p := range []uint16{1000, 1002, 1004} {
		if !seen[p] {
			t.Fatalf("flow src %d missing from port 2 after neighbour remap", p)
		}
	}
	if got := c.LinkUtilization(2); got != want {
		t.Fatalf("utilization %v != sum of snapshots %v", got, want)
	}
}
