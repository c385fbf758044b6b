// Mirror-actuation oracle: a mirror-config commit (shed + tune) landing
// mid-stream of one large IngestBatch must leave the system in exactly
// the state of a run where it lands on a batch boundary — identical
// routing attribution (mirror-plane commits ride the same snapshot
// machinery but must be invisible to reroute attribution), identical
// final mirror-override state, and identical deterministic diffs. Run
// under -race by `make race-fast`.
package routing_test

import (
	"fmt"
	"strings"
	"testing"

	"planck/internal/core"
	"planck/internal/routing"
	"planck/internal/topo"
	"planck/internal/units"
)

// mirrorState flattens a snapshot's mirror-plane state for comparison.
func mirrorState(s *routing.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mirror=%v overrides=%d;", s.Mirror(), len(mirrorOverrides(s)))
	s.EachMirrorOverride(func(sw, port int, cfg routing.MirrorPortConfig) {
		fmt.Fprintf(&b, " %d/%d={%v,%v}", sw, port, cfg.Mirrored, cfg.TargetRate)
	})
	return b.String()
}

// mirrorOverrides collects the snapshot's explicit mirror-config
// overrides by switch and port.
func mirrorOverrides(s *routing.Snapshot) map[[2]int]routing.MirrorPortConfig {
	out := make(map[[2]int]routing.MirrorPortConfig)
	s.EachMirrorOverride(func(sw, port int, cfg routing.MirrorPortConfig) {
		out[[2]int{sw, port}] = cfg
	})
	return out
}

// diffString flattens an actuation diff for comparison.
func diffString(diff []routing.Change) string {
	var b strings.Builder
	for _, ch := range diff {
		switch ch.Kind {
		case routing.ChangeMirrorPort:
			fmt.Fprintf(&b, "[mirror %d/%d %v %v]", ch.Switch, ch.Port, ch.Mirror.Mirrored, ch.Mirror.TargetRate)
		case routing.ChangeFlowTree:
			fmt.Fprintf(&b, "[flow %s tree%d]", ch.Flow.String(), ch.Tree)
		case routing.ChangePairTree:
			fmt.Fprintf(&b, "[pair %d->%d tree%d]", ch.Src, ch.Dst, ch.Tree)
		}
	}
	return b.String()
}

// mirrorOutcome is everything observable about one replay with mirror
// commits interleaved: the routing attribution plus the mirror plane's
// final state and the diffs each commit demanded.
type mirrorOutcome struct {
	attr    attribution
	state   string
	commits string
}

func (o mirrorOutcome) String() string {
	return fmt.Sprintf("%v | %s | %s", o.attr, o.state, o.commits)
}

// runMirrorScenario replays the reroute stream with a combined
// reroute + shed/tune commit at rerouteAt and a restore commit after
// the stream. boundary=true splits the batch at the activation;
// boundary=false delivers one batch spanning it.
func runMirrorScenario(t *testing.T, net *topo.Network, st *rerouteStream, col *core.Collector, boundary bool) mirrorOutcome {
	t.Helper()
	store := routing.NewStore(net)
	store.Commit(0, func(tx *routing.Tx) { tx.SetMirror(true) })
	col.SetPortMapper(routing.NewView(store, st.sw))

	var commits strings.Builder
	commit := func(at units.Time, mutate func(*routing.Tx)) {
		prev := store.Load()
		snap := store.Commit(at, mutate)
		commits.WriteString(diffString(snap.DiffFrom(prev)))
	}
	const shedPort, tunePort = 1, 2
	tuned := routing.MirrorPortConfig{Mirrored: true, TargetRate: units.Rate10G / 4}
	override := func() {
		// One commit carries the reroute and the governor's shed/tune,
		// exercising the mixed-diff path.
		commit(rerouteAt, func(tx *routing.Tx) {
			tx.SetFlowTree(st.key, 0, 8, 2)
			tx.SetMirrorPort(st.sw, shedPort, routing.MirrorPortConfig{Mirrored: false})
			tx.SetMirrorPort(st.sw, tunePort, tuned)
		})
	}
	if boundary {
		if err := col.IngestBatch(st.ts[:st.splitAt], st.frames[:st.splitAt]); err != nil {
			t.Fatal(err)
		}
		override()
		if err := col.IngestBatch(st.ts[st.splitAt:], st.frames[st.splitAt:]); err != nil {
			t.Fatal(err)
		}
	} else {
		override()
		if err := col.IngestBatch(st.ts, st.frames); err != nil {
			t.Fatal(err)
		}
	}
	// Governor recovery: the shed port is restored after the stream.
	commit(st.ts[len(st.ts)-1].Add(units.Millisecond), func(tx *routing.Tx) {
		tx.ClearMirrorPort(st.sw, shedPort)
	})
	return mirrorOutcome{
		attr:    collect(t, col, net, st),
		state:   mirrorState(store.Load()),
		commits: commits.String(),
	}
}

func TestMirrorCommitMidStreamMatchesBatchBoundary(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	stream := buildRerouteStream(t, net)
	ccfg := core.Config{SwitchName: "edge0", NumPorts: len(net.Ports[stream.sw]), LinkRate: net.LineRate}

	// The pure-reroute serial run is the attribution reference: mirror
	// commits must not perturb it at all.
	pureReroute := runScenario(t, net, stream, core.New(ccfg), true)

	serialBoundary := runMirrorScenario(t, net, stream, core.New(ccfg), true)
	serialMid := runMirrorScenario(t, net, stream, core.New(ccfg), false)
	if serialBoundary.String() != serialMid.String() {
		t.Fatalf("serial outcome diverged:\n boundary: %v\n midstream: %v", serialBoundary, serialMid)
	}
	if serialBoundary.attr.String() != pureReroute.String() {
		t.Fatalf("mirror commits perturbed reroute attribution:\n with:    %v\n without: %v",
			serialBoundary.attr, pureReroute)
	}

	// The mixed commit's diff must order reroute actuation ahead of
	// mirror actuation, deterministically, and the restore must emit the
	// snapshot-default config for the cleared port.
	wantCommits := fmt.Sprintf("[flow %s tree2][mirror %d/1 false 0bps][mirror %d/2 true %v]"+
		"[mirror %d/1 true 0bps]",
		stream.key.String(), stream.sw, stream.sw, units.Rate10G/4, stream.sw)
	if serialBoundary.commits != wantCommits {
		t.Fatalf("commit diffs:\n got:  %s\n want: %s", serialBoundary.commits, wantCommits)
	}
	// Final state: only the tune override survives the restore.
	wantState := fmt.Sprintf("mirror=true overrides=1; %d/2={true,%v}", stream.sw, units.Rate10G/4)
	if serialBoundary.state != wantState {
		t.Fatalf("final mirror state:\n got:  %s\n want: %s", serialBoundary.state, wantState)
	}
}

// TestRerouteDiffsCarryNoMirrorChanges pins the bit-identical guarantee
// for the pre-existing reroute path: commits that never touch mirror
// config produce diffs with no ChangeMirrorPort entries, even on a
// store whose earlier epochs carried mirror overrides.
func TestRerouteDiffsCarryNoMirrorChanges(t *testing.T) {
	net := topo.FatTree16(units.Rate10G)
	store := routing.NewStore(net)
	store.Commit(0, func(tx *routing.Tx) { tx.SetMirror(true) })

	prev := store.Load()
	snap := store.Commit(units.Time(units.Millisecond), func(tx *routing.Tx) {
		tx.SetPairTree(0, 8, 1)
	})
	for _, ch := range snap.DiffFrom(prev) {
		if ch.Kind == routing.ChangeMirrorPort {
			t.Fatalf("reroute-only commit produced mirror actuation: %+v", ch)
		}
	}

	// Install an override, then reroute again: the unchanged override
	// must not re-actuate.
	store.Commit(units.Time(2*units.Millisecond), func(tx *routing.Tx) {
		tx.SetMirrorPort(3, 1, routing.MirrorPortConfig{Mirrored: false})
	})
	prev = store.Load()
	snap = store.Commit(units.Time(3*units.Millisecond), func(tx *routing.Tx) {
		tx.SetPairTree(1, 9, 2)
	})
	diff := snap.DiffFrom(prev)
	if len(diff) != 1 || diff[0].Kind != routing.ChangePairTree {
		t.Fatalf("stable mirror override re-actuated: %v", diffString(diff))
	}
	// And the override is still resolvable through the new epoch.
	ov := mirrorOverrides(snap)
	if got, ok := ov[[2]int{3, 1}]; !ok || got.Mirrored {
		t.Fatal("override lost across reroute commit")
	}
	if _, ok := ov[[2]int{3, 2}]; ok || !snap.Mirror() {
		t.Fatal("default port lost global mirror setting")
	}
}
