package lab

import (
	"testing"

	"planck/internal/core"
	"planck/internal/te"
	"planck/internal/topo"
	"planck/internal/units"
)

// TestSupervisedQueryLoopReadsLiveCollectors: on a supervised lab,
// PlanckTE's view refresh (§3.3's query loop) reads every collector's
// flow table, and after a crash the restarted one. No estimate reaches
// a hundred times the link rate (mirror-queue bursts inflate short
// windows past twice it), so no congestion event fires and the view
// fills from the query loop alone.
func TestSupervisedQueryLoopReadsLiveCollectors(t *testing.T) {
	l, err := New(Options{
		Net:             topo.FatTree16(units.Rate10G),
		Mirror:          true,
		Seed:            7,
		CollectorConfig: core.Config{UtilThreshold: 100},
		Supervise:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	applyFaults(t, l, "crash@15ms")
	app := te.NewPlanckTE(l.Ctrl, te.DefaultPlanckTEConfig())
	for i := 0; i < 8; i++ {
		if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(i+8), uint16(5001+i), 100<<20, int32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	l.Run(10 * units.Millisecond)
	if app.ViewSize() == 0 {
		t.Fatal("PlanckTE's view is empty with eight flows running: the query loop read no collector")
	}
	l.Run(30 * units.Millisecond)
	if app.EventsHandled != 0 {
		t.Fatalf("%d congestion events handled; at threshold 100 the view must come from the query loop alone", app.EventsHandled)
	}
	if app.ViewSize() == 0 {
		t.Fatal("PlanckTE's view is empty after the restarts: the query loop reads no live collector")
	}
	supervised := 0
	for s, sup := range l.Supervisors {
		if sup == nil {
			continue
		}
		supervised++
		if sup.gen == 0 {
			t.Fatalf("switch %d: collector never restarted; the crash fault did not bite", s)
		}
		if got, live := l.Ctrl.Collector(s), l.Collector(s); got != live {
			t.Errorf("switch %d: the controller queries %p, the node runs %p", s, got, live)
		}
	}
	if supervised == 0 {
		t.Fatal("no supervised switch")
	}
}
