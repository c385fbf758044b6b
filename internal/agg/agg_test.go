package agg_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/lab"
	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/topo"
	"planck/internal/units"
)

// The fleet-vs-global oracle. A real testbed run is captured at the
// collector's NIC (the same shared-bottleneck scenario the lab's
// serial-equivalence oracle uses), then replayed two ways:
//
//	(a) through one global collector that sees every sample — the
//	    hypothetical monolith;
//	(b) through a fleet of vantage collectors, each seeing only its
//	    partition of the stream, feeding one aggregation Plane.
//
// The plane's outputs must match the monolith's exactly: the same
// congestion events in the same stream order with the same cooldown
// spacing and the same (sorted) flow annotations, per-port link
// utilizations equal to the bit, the same flow records with the same
// rates, and the same mid-replay expiry count. Fleet sizes 2, 4, and
// 20 cover partitioned vantages; a 2-replica fleet covers fully
// overlapping vantages, where the cross-vantage dedup must collapse
// the doubled reports and candidates back to the monolith's stream.
//
// Exactness holds under static routing (the capture scenario): with a
// fixed port map, each flow's (lastSeen, rate, port) trajectory at its
// vantage collector is identical to its trajectory in the monolith, so
// every sum and threshold comparison agrees. Under live reroutes the
// plane tracks port moves at sample granularity while a collector
// remaps its whole table on an epoch bump, so equality weakens to
// convergence-within-a-poll; DESIGN.md §3.6 discusses the gap.

type capturedStream struct {
	times []units.Time
	offs  []int
	buf   []byte
}

func (cs *capturedStream) add(at units.Time, frame []byte) {
	if len(cs.offs) == 0 {
		cs.offs = append(cs.offs, 0)
	}
	cs.times = append(cs.times, at)
	cs.buf = append(cs.buf, frame...)
	cs.offs = append(cs.offs, len(cs.buf))
}

func (cs *capturedStream) frame(i int) []byte { return cs.buf[cs.offs[i]:cs.offs[i+1]] }
func (cs *capturedStream) n() int             { return len(cs.times) }

// captureStream drives the lab's shared-bottleneck scenario and records
// switch 0's mirror-port sample stream.
func captureStream(t *testing.T) (*capturedStream, core.Config, core.RouteResolver) {
	t.Helper()
	net := topo.SingleSwitch("sw0", 4, units.Rate10G, true)
	l, err := lab.New(lab.Options{Net: net, Mirror: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cs := &capturedStream{}
	l.Collectors[0].OnFrame = cs.add

	for i := 0; i < 3; i++ {
		if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(3), uint16(5001+i), 4<<20, int32(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Hosts[1].StartFlow(0, topo.HostIP(2), 6001, 256<<10, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Hosts[2].StartCBR(0, topo.HostIP(0), 7001, 1000, units.Rate(500*units.Mbps), 11); err != nil {
		t.Fatal(err)
	}
	l.Run(120 * units.Millisecond)

	if cs.n() < 5000 {
		t.Fatalf("capture too small to exercise the fleet: %d samples", cs.n())
	}
	ccfg := core.Config{SwitchName: "sw0", NumPorts: len(net.Ports[0]), LinkRate: net.LineRate}
	return cs, ccfg, routing.NewView(routing.NewStore(net), 0)
}

func renderEvent(ev core.CongestionEvent) string {
	flows := append([]core.FlowInfo(nil), ev.Flows...)
	// Flow annotation order is the one representation detail that may
	// legitimately differ between monolith and plane (swap-remove
	// bookkeeping); normalize it before comparing.
	sort.Slice(flows, func(i, j int) bool {
		return fmt.Sprintf("%+v", flows[i].Key) < fmt.Sprintf("%+v", flows[j].Key)
	})
	return fmt.Sprintf("t=%d %s port=%d util=%d cap=%d flows=%+v",
		ev.Time, ev.SwitchName, ev.Port, ev.Util, ev.Capacity, flows)
}

// report is everything the oracle compares.
type report struct {
	events  []string
	utils   []units.Rate
	rates   map[string]units.Rate // flows with a rate estimate
	flows   int
	expired int
}

// replayGlobal pushes the stream through one monolithic collector.
func replayGlobal(t *testing.T, cs *capturedStream, ccfg core.Config, mapper core.RouteResolver) report {
	t.Helper()
	rep := report{rates: map[string]units.Rate{}, utils: make([]units.Rate, ccfg.NumPorts)}
	col := core.New(ccfg)
	col.SetPortMapper(mapper)
	col.Subscribe(func(ev core.CongestionEvent) { rep.events = append(rep.events, renderEvent(ev)) })
	mid := cs.n() / 2
	for i := 0; i < cs.n(); i++ {
		if err := col.Ingest(cs.times[i], cs.frame(i)); err != nil {
			t.Fatalf("global sample %d: %v", i, err)
		}
		if i == mid {
			rep.expired = col.ExpireFlows(cs.times[i], 2*units.Millisecond)
		}
	}
	for p := 0; p < ccfg.NumPorts; p++ {
		rep.utils[p] = col.LinkUtilization(p)
	}
	col.Flows(func(f *core.FlowState) {
		rep.flows++
		if r, ok := f.Rate(); ok {
			rep.rates[f.Key.String()] = r
		}
	})
	return rep
}

// replayFleet pushes the stream through n vantage collectors feeding
// one aggregation plane. With replicate=false frames are partitioned
// across vantages by flow hash (disjoint coverage); with replicate=true
// every vantage ingests every frame (fully overlapping coverage).
func replayFleet(t *testing.T, cs *capturedStream, ccfg core.Config, mapper core.RouteResolver, n int, replicate bool) (report, *agg.Plane) {
	t.Helper()
	rep := report{rates: map[string]units.Rate{}, utils: make([]units.Rate, ccfg.NumPorts)}
	plane := agg.New(agg.Config{})
	plane.Subscribe(func(ev core.CongestionEvent) { rep.events = append(rep.events, renderEvent(ev)) })

	cols := make([]*core.Collector, n)
	for i := range cols {
		vc := ccfg
		v := plane.Join(0, ccfg.SwitchName, ccfg.NumPorts, ccfg.LinkRate)
		vc.Sink = v
		vc.Vantage = int(v.ID())
		cols[i] = core.New(vc)
		// Fleet collectors have no event subscribers: detection is the
		// plane's job. (A subscriber here would re-enable local
		// detection and double every event.)
		cols[i].SetPortMapper(mapper)
	}

	var d packet.Decoded
	mid := cs.n() / 2
	for i := 0; i < cs.n(); i++ {
		fr := cs.frame(i)
		if replicate {
			for _, c := range cols {
				if err := c.Ingest(cs.times[i], fr); err != nil {
					t.Fatalf("fleet sample %d: %v", i, err)
				}
			}
		} else {
			vi := 0
			if err := d.Decode(fr); err == nil {
				if k, ok := d.Flow(); ok {
					vi = int(core.HashFlowKey(k) % uint64(n))
				}
			}
			if err := cols[vi].Ingest(cs.times[i], fr); err != nil {
				t.Fatalf("fleet sample %d: %v", i, err)
			}
		}
		if i == mid {
			for _, c := range cols {
				c.ExpireFlows(cs.times[i], 2*units.Millisecond)
			}
			rep.expired = plane.ExpireFlows(cs.times[i], 2*units.Millisecond)
		}
	}
	plane.Flush()
	// The monolith's clock advances on every ingested frame, flow-bearing
	// or not; the plane only learns time from flow reports, and relies on
	// its periodic Tick (the lab wires one) to track idle tails. Align
	// the clocks the same way before the quiescent utilization read.
	plane.Tick(cs.times[cs.n()-1])
	for p := 0; p < ccfg.NumPorts; p++ {
		rep.utils[p] = plane.LinkUtilization(0, p)
	}
	rep.flows = plane.FlowCount()
	plane.EachFlow(func(sw int, fi core.FlowInfo, lastSeen units.Time) {
		if sw != 0 {
			t.Fatalf("EachFlow reported unknown switch %d", sw)
		}
		rep.rates[fi.Key.String()] = fi.Rate
	})
	return rep, plane
}

func TestFleetMatchesGlobalOracle(t *testing.T) {
	cs, ccfg, mapper := captureStream(t)

	global := replayGlobal(t, cs, ccfg, mapper)
	if len(global.events) == 0 {
		t.Fatal("scenario produced no congestion events; oracle would be vacuous")
	}
	if global.expired == 0 {
		t.Fatal("mid-replay expiry removed nothing; oracle would be vacuous")
	}
	if len(global.rates) == 0 {
		t.Fatal("scenario produced no rate estimates; oracle would be vacuous")
	}

	check := func(name string, got report, plane *agg.Plane) {
		t.Helper()
		if !reflect.DeepEqual(got.events, global.events) {
			t.Errorf("%s: events diverge (%d vs %d):\n got %v\nwant %v",
				name, len(got.events), len(global.events), got.events, global.events)
		}
		if !reflect.DeepEqual(got.utils, global.utils) {
			t.Errorf("%s: utils %v != global %v", name, got.utils, global.utils)
		}
		if !reflect.DeepEqual(got.rates, global.rates) {
			t.Errorf("%s: flow rates diverge:\n got %v\nwant %v", name, got.rates, global.rates)
		}
		if got.flows != global.flows {
			t.Errorf("%s: %d merged flow records != global %d", name, got.flows, global.flows)
		}
		if got.expired != global.expired {
			t.Errorf("%s: expired %d != global %d", name, got.expired, global.expired)
		}
		if late := plane.LateReports(); late != 0 {
			t.Errorf("%s: plane dropped %d candidates late; engine-ordered replay must never be late", name, late)
		}
	}

	for _, n := range []int{2, 4, 20} {
		got, plane := replayFleet(t, cs, ccfg, mapper, n, false)
		check(fmt.Sprintf("fleet-%d", n), got, plane)
		if plane.DupReports() != 0 {
			t.Errorf("fleet-%d: disjoint partition saw %d dup reports", n, plane.DupReports())
		}
	}

	// Fully overlapping coverage: two vantages each see the whole
	// stream. The doubled reports and candidates must collapse back to
	// the monolith's exact output, and the dedup machinery must have
	// actually fired (otherwise the overlap case is vacuous).
	got, plane := replayFleet(t, cs, ccfg, mapper, 2, true)
	check("overlap-2", got, plane)
	if plane.SuppressedCandidates() == 0 && plane.DupReports() == 0 {
		t.Error("overlap-2: no duplicate suppression anywhere in the plane")
	}
}
