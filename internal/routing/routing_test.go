package routing

import (
	"testing"

	"planck/internal/packet"
	"planck/internal/topo"
	"planck/internal/units"
)

func testKey(srcHost, dstHost int, dstPort uint16) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   topo.HostIP(srcHost),
		DstIP:   topo.HostIP(dstHost),
		SrcPort: 1000,
		DstPort: dstPort,
		Proto:   packet.IPProtocolTCP,
	}
}

func TestCommitEpochsAreMonotoneAndCOW(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	st := NewStore(net)
	if st.Epoch() != 0 {
		t.Fatalf("seed epoch %d, want 0", st.Epoch())
	}

	e0 := st.Load()
	trees := make([]int, net.NumHosts())
	for i := range trees {
		trees[i] = i % net.NumTrees
	}
	e1 := st.Commit(units.Time(units.Millisecond), func(tx *Tx) {
		tx.SetBaseTrees(trees)
		tx.SetMirror(true)
	})
	if e1.Epoch() != 1 || st.Epoch() != 1 {
		t.Fatalf("epoch after commit: snap=%d store=%d", e1.Epoch(), st.Epoch())
	}
	if e1.BaseTree(5) != 5%net.NumTrees || !e1.Mirror() {
		t.Fatalf("commit did not apply: tree(5)=%d mirror=%v", e1.BaseTree(5), e1.Mirror())
	}
	// Copy-on-write: the older epoch is frozen.
	if e0.BaseTree(5) != 0 || e0.Mirror() {
		t.Fatalf("epoch 0 mutated: tree(5)=%d mirror=%v", e0.BaseTree(5), e0.Mirror())
	}

	key := testKey(0, 8, 5001)
	e2 := st.Commit(units.Time(2*units.Millisecond), func(tx *Tx) {
		tx.SetFlowTree(key, 0, 8, 2)
	})
	if got := e2.TreeFor(key, 0, 8); got != 2 {
		t.Fatalf("flow override tree %d, want 2", got)
	}
	if got := e1.TreeFor(key, 0, 8); got != e1.BaseTree(8) {
		t.Fatalf("epoch 1 leaked the flow override: tree %d", got)
	}
	// Pair overrides layer under flow overrides.
	e3 := st.Commit(units.Time(3*units.Millisecond), func(tx *Tx) {
		tx.SetPairTree(0, 8, 3)
	})
	if got := e3.TreeFor(key, 0, 8); got != 2 {
		t.Fatalf("flow override must shadow pair override: tree %d", got)
	}
	if got := e3.TreeFor(testKey(0, 8, 9999), 0, 8); got != 3 {
		t.Fatalf("pair override tree %d, want 3", got)
	}
}

func TestHistoryResolvesByTimestamp(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	st := NewStore(net)
	st.Commit(units.Time(units.Millisecond), nil)   // epoch 1 active from 1ms
	st.Commit(units.Time(5*units.Millisecond), nil) // epoch 2 active from 5ms

	cases := []struct {
		t    units.Time
		want uint64
	}{
		{0, 0},
		{units.Time(units.Millisecond), 1},
		{units.Time(3 * units.Millisecond), 1},
		{units.Time(5 * units.Millisecond), 2},
		{units.Time(units.Second), 2},
	}
	for _, c := range cases {
		if got := st.cur.Load().at(c.t).Epoch(); got != c.want {
			t.Fatalf("At(%v) epoch %d, want %d", c.t, got, c.want)
		}
	}

	// Activation clamping: a commit scheduled before its predecessor's
	// activation cannot reorder the history.
	s := st.Commit(units.Time(2*units.Millisecond), nil)
	if s.since != units.Time(5*units.Millisecond) {
		t.Fatalf("clamped since %v, want 5ms", s.since)
	}

	// The ring stays bounded and old epochs fall off the back.
	for i := 0; i < 2*HistoryDepth; i++ {
		st.Commit(units.Time(units.Second), nil)
	}
	if got := st.cur.Load().at(0).Epoch(); got == 0 {
		t.Fatal("epoch 0 should have been evicted from the history ring")
	}
}

func TestDiffFromYieldsExactlyTheChanges(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	st := NewStore(net)
	prev := st.Commit(0, nil)

	key := testKey(1, 9, 5001)
	next := st.Commit(units.Time(units.Millisecond), func(tx *Tx) {
		tx.SetPairTree(3, 9, 2)
		tx.SetFlowTree(key, 1, 9, 1)
	})
	diff := next.DiffFrom(prev)
	if len(diff) != 2 {
		t.Fatalf("diff len %d, want 2: %+v", len(diff), diff)
	}
	if diff[0].Kind != ChangePairTree || diff[0].Src != 3 || diff[0].Dst != 9 || diff[0].Tree != 2 {
		t.Fatalf("pair change %+v", diff[0])
	}
	if diff[1].Kind != ChangeFlowTree || diff[1].Flow != key || diff[1].Tree != 1 {
		t.Fatalf("flow change %+v", diff[1])
	}

	// Re-committing the same overrides is a no-op diff.
	again := st.Commit(units.Time(2*units.Millisecond), func(tx *Tx) {
		tx.SetPairTree(3, 9, 2)
		tx.SetFlowTree(key, 1, 9, 1)
	})
	if d := again.DiffFrom(next); len(d) != 0 {
		t.Fatalf("no-op diff %+v", d)
	}
}

// TestViewPortInference: the View's static-label half must match the
// switch MAC tables exactly.
func TestViewPortInference(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	// Output port at the ingress edge of host 0 for dst 8 tree 2 must be
	// the uplink toward agg 1 (trees 2,3 ride agg index 1).
	s := net.Hosts[0].Switch
	v := NewView(NewStore(net), s)
	key := testKey(0, 8, 5001)
	port, _, ok := v.ResolveOutput(0, key, topo.ShadowMAC(8, 2))
	if !ok || port != 3 { // edge ports: 0,1 hosts; 2 -> agg0; 3 -> agg1
		t.Fatalf("output port %d ok=%v", port, ok)
	}
	// Foreign MACs are rejected.
	if _, _, ok := v.ResolveOutput(0, key, packet.MAC{0xde, 0xad, 0, 0, 0, 1}); ok {
		t.Fatal("foreign MAC mapped")
	}
}

// TestResolveOutputFollowsEpochAtTimestamp pins the attribution rule:
// ResolveOutput answers from the snapshot live at the sample's
// timestamp, applying a per-flow override only at the flow's ingress
// switch, and reports the epoch it used.
func TestResolveOutputFollowsEpochAtTimestamp(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	st := NewStore(net)
	st.Commit(0, nil) // epoch 1: base trees, active from 0

	key := testKey(0, 8, 5001)
	activate := units.Time(2 * units.Millisecond)
	st.Commit(activate, func(tx *Tx) {
		tx.SetFlowTree(key, 0, 8, 2)
	})

	ingress := net.Hosts[0].Switch
	v := NewView(st, ingress)
	if e := v.Refresh(); e != 2 {
		t.Fatalf("refreshed epoch %d, want 2", e)
	}

	oldLabel := topo.ShadowMAC(8, 0)
	wantOld := net.RoutePort(0, 8, ingress)
	wantNew := net.RoutePort(2, 8, ingress)
	if wantOld == wantNew {
		t.Fatalf("degenerate topology: tree 0 and tree 2 share port %d", wantOld)
	}

	// Before activation: the old epoch answers, by the label.
	p, e, ok := v.ResolveOutput(activate-1, key, oldLabel)
	if !ok || p != wantOld || e != 1 {
		t.Fatalf("pre-activation resolve port=%d epoch=%d ok=%v, want port=%d epoch=1", p, e, ok, wantOld)
	}
	// At/after activation: the override routes the flow onto tree 2 at
	// its ingress switch even if a straggler sample still carries the
	// old label.
	p, e, ok = v.ResolveOutput(activate, key, oldLabel)
	if !ok || p != wantNew || e != 2 {
		t.Fatalf("post-activation resolve port=%d epoch=%d ok=%v, want port=%d epoch=2", p, e, ok, wantNew)
	}
	// A different flow between the same hosts is untouched.
	p, e, ok = v.ResolveOutput(activate, testKey(0, 8, 9999), oldLabel)
	if !ok || p != wantOld || e != 2 {
		t.Fatalf("other-flow resolve port=%d epoch=%d ok=%v, want port=%d epoch=2", p, e, ok, wantOld)
	}
	// Off the ingress switch the override does not apply: the label is
	// what the switch forwarded on.
	off := NewView(st, 16) // a core switch that is not host 0's edge
	off.Refresh()
	if p, _, ok := off.ResolveOutput(activate, key, topo.ShadowMAC(8, 2)); !ok || p != net.RoutePort(2, 8, 16) {
		// Only check when the core switch participates in tree 2 for dst 8.
		if net.RoutePort(2, 8, 16) >= 0 {
			t.Fatalf("off-ingress resolve port=%d ok=%v", p, ok)
		}
	}
}
