package agg_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/units"
)

// The release rule: with a positive ReorderWindow the plane emits a
// buffered candidate as soon as every live vantage has reported past
// its time, and no later than the window allows. These tests drive the
// plane directly — no link, no collector — with synthetic reports.

const relPorts = 4

// relReport is an over- or under-threshold rate update for one of two
// flows on (vantage's switch, port).
func relReport(sw, port, flow int, t units.Time, rate units.Rate) core.FlowReport {
	return core.FlowReport{
		Time: t,
		Key: packet.FlowKey{
			SrcIP:   packet.IPv4{10, byte(sw), byte(port), byte(flow)},
			DstIP:   packet.IPv4{10, 9, 9, 9},
			SrcPort: uint16(1000 + flow), DstPort: 5001,
			Proto: packet.IPProtocolTCP,
		},
		OutPort: port, Epoch: 1,
		Rate: rate, RateOK: true, RateUpdated: true,
	}
}

func relPlane(window units.Duration, events *[]string) (*agg.Plane, func(sw int) *agg.Vantage) {
	p := agg.New(agg.Config{ReorderWindow: window, ExternalMergeAdvance: window > 0})
	p.Subscribe(func(ev core.CongestionEvent) { *events = append(*events, renderEvent(ev)) })
	return p, func(sw int) *agg.Vantage {
		v := p.Join(sw, fmt.Sprintf("sw%d", sw), relPorts, units.Rate10G)
		v.BindTransport()
		return v
	}
}

// relItem is one thing a vantage's link delivers: a report, a heartbeat
// (liveness and a wall-clock stamp, no data), or a restart notice.
type relItem struct {
	at        units.Time // report time, or the heartbeat's stamp
	vantage   int
	heartbeat bool
	rejoin    bool
	rep       core.FlowReport
}

// relStreams builds each vantage's in-order stream: reports at its own
// cadence whose rates take the ports above and below the 90 % threshold
// at random. Vantage 0 goes idle (heartbeats only, stamped captureLag
// ahead of where its data stamps would be) for the middle of the run;
// the last vantage restarts a third of the way in.
func relStreams(rng *rand.Rand, nv int, end units.Time) [][]relItem {
	const captureLag = 300 * units.Microsecond
	cadences := []units.Duration{37 * units.Microsecond, 113 * units.Microsecond, 260 * units.Microsecond, 71 * units.Microsecond}
	streams := make([][]relItem, nv)
	for v := 0; v < nv; v++ {
		idleFrom, idleTo := units.Time(-1), units.Time(-1)
		if v == 0 {
			idleFrom, idleTo = end/5, end*3/5
		}
		rejoinAt := units.Time(-1)
		if v == nv-1 {
			rejoinAt = end / 3
		}
		nextHB := units.Time(0)
		for t := units.Time(1000 + 7*v); t < end; t = t.Add(cadences[v]) {
			if rejoinAt >= 0 && t >= rejoinAt {
				streams[v] = append(streams[v], relItem{at: t, vantage: v, rejoin: true})
				rejoinAt = -1
			}
			if t >= idleFrom && t < idleTo {
				if t >= nextHB {
					streams[v] = append(streams[v], relItem{at: t.Add(captureLag), vantage: v, heartbeat: true})
					nextHB = t.Add(units.Millisecond)
				}
				continue
			}
			rate := units.Rate(rng.Int63n(6_000_000_000))
			rep := relReport(v, rng.Intn(relPorts), rng.Intn(2), t, rate)
			streams[v] = append(streams[v], relItem{at: t, vantage: v, rep: rep})
		}
	}
	return streams
}

// TestReleaseRuleMatchesInOrderOracle delivers the same per-vantage
// streams two ways: in global time order into a ReorderWindow-0 plane
// (the oracle, which emits at once), and in a random cross-vantage
// interleaving into planes with 1, 5 and 20 ms windows whose window
// clock follows the slowest vantage's newest delivery, as a link
// receiver's watermark does. Early release must never reorder, drop or
// duplicate an event.
func TestReleaseRuleMatchesInOrderOracle(t *testing.T) {
	const end = units.Time(60 * units.Millisecond)
	for nv := 2; nv <= 4; nv++ {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(nv)))
			streams := relStreams(rng, nv, end)

			var want []string
			oracle, joinOracle := relPlane(0, &want)
			ov := make([]*agg.Vantage, nv)
			var all []relItem
			for v := range streams {
				ov[v] = joinOracle(v)
				all = append(all, streams[v]...)
			}
			sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
			for i := range all {
				if it := &all[i]; it.rejoin {
					ov[it.vantage].Rejoin()
				} else if !it.heartbeat {
					ov[it.vantage].Report(&it.rep)
				}
			}
			oracle.Flush()
			if len(want) < 50 {
				t.Fatalf("nv=%d seed=%d: oracle emitted only %d events; the comparison would be vacuous", nv, seed, len(want))
			}

			for _, window := range []units.Duration{units.Millisecond, 5 * units.Millisecond, 20 * units.Millisecond} {
				var got []string
				plane, join := relPlane(window, &got)
				vs := make([]*agg.Vantage, nv)
				for v := range vs {
					vs[v] = join(v)
				}
				next := make([]int, nv)
				through := make([]units.Time, nv)
				wm := units.Time(0)
				for left := len(all); left > 0; left-- {
					// Half the time the globally oldest item, else any
					// vantage's next: streams run ahead of and behind one
					// another without bound.
					pick := -1
					for v := range streams {
						if next[v] < len(streams[v]) && (pick < 0 || streams[v][next[v]].at < streams[pick][next[pick]].at) {
							pick = v
						}
					}
					if rng.Intn(2) == 0 {
						for v := rng.Intn(nv); ; v = (v + 1) % nv {
							if next[v] < len(streams[v]) {
								pick = v
								break
							}
						}
					}
					it := &streams[pick][next[pick]]
					next[pick]++
					switch {
					case it.rejoin:
						vs[pick].Rejoin()
					case it.heartbeat:
						vs[pick].NoteLive(it.at)
					default:
						vs[pick].NoteLive(it.at)
						vs[pick].Report(&it.rep)
					}
					if it.at > through[pick] {
						through[pick] = it.at
					}
					low := through[0]
					for _, th := range through[1:] {
						low = min(low, th)
					}
					if low > wm {
						wm = low
						plane.AdvanceMerge(wm)
					}
				}
				held := plane.Merger().Pending()
				plane.Flush()
				name := fmt.Sprintf("nv=%d seed=%d window=%v", nv, seed, window)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %d events, oracle %d; first difference at %d", name, len(got), len(want), firstDiff(got, want))
				}
				if late := plane.Merger().Late; late != 0 {
					t.Errorf("%s: %d candidates dropped late", name, late)
				}
				if held > len(want)/4 {
					t.Errorf("%s: %d of %d events still buffered at the end; the rule released almost nothing", name, held, len(want))
				}
			}
		}
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestReleaseHold counts, in virtual time, what a candidate waits for.
func TestReleaseHold(t *testing.T) {
	const (
		window  = units.Millisecond
		cadence = 200 * units.Microsecond
		hot     = units.Rate(9_500_000_000)
		t0      = units.Time(10 * units.Millisecond)
	)

	t.Run("one vantage: the very next report", func(t *testing.T) {
		var events []string
		_, join := relPlane(window, &events)
		v := join(0)
		trigger := relReport(0, 1, 0, t0, hot)
		v.Report(&trigger)
		if len(events) != 0 {
			t.Fatalf("emitted with the trigger itself: a later report could still carry the same time")
		}
		same := relReport(0, 2, 0, t0, 1000)
		v.Report(&same)
		if len(events) != 0 {
			t.Fatalf("emitted by a report with the trigger's own time; release must be strict")
		}
		after := relReport(0, 2, 1, t0+1, 1000)
		v.Report(&after)
		if len(events) != 1 {
			t.Fatalf("%d events after the next report, want 1: hold must not wait for the window", len(events))
		}
	})

	t.Run("two vantages at 200us: within one cadence", func(t *testing.T) {
		var events []string
		_, join := relPlane(window, &events)
		a, b := join(0), join(1)
		// b reports half a cadence out of phase with a.
		warm := relReport(1, 0, 0, t0.Add(-cadence/2), 1000)
		b.Report(&warm)
		trigger := relReport(0, 1, 0, t0, hot)
		a.Report(&trigger)
		nextB := relReport(1, 0, 0, t0.Add(cadence/2), 1000)
		b.Report(&nextB)
		if len(events) != 0 {
			t.Fatalf("emitted before the trigger's own vantage had reported past it")
		}
		nextA := relReport(0, 2, 0, t0.Add(cadence), 1000)
		a.Report(&nextA)
		if len(events) != 1 {
			t.Fatalf("%d events once both vantages are past the trigger (one report each, %v after it), want 1", len(events), cadence)
		}
	})

	t.Run("idle vantage: the window, as before", func(t *testing.T) {
		var events []string
		plane, join := relPlane(window, &events)
		a, idle := join(0), join(1)
		old := relReport(1, 0, 0, t0.Add(-5*units.Millisecond), 1000)
		idle.Report(&old)
		trigger := relReport(0, 1, 0, t0, hot)
		a.Report(&trigger)
		for i := 1; i <= 4; i++ {
			idle.NoteLive(t0.Add(units.Duration(i) * cadence)) // heartbeats: alive, no data
			r := relReport(0, 2, 0, t0.Add(units.Duration(i)*cadence), 1000)
			a.Report(&r)
			plane.AdvanceMerge(r.Time)
		}
		if len(events) != 0 {
			t.Fatalf("emitted %v after the trigger while a live vantage had reported nothing since before it", 4*cadence)
		}
		plane.AdvanceMerge(t0.Add(window) - 1)
		if len(events) != 0 {
			t.Fatalf("emitted before the window had passed")
		}
		plane.AdvanceMerge(t0.Add(window))
		if len(events) != 1 {
			t.Fatalf("%d events once the delivery watermark is a window past the trigger, want 1", len(events))
		}
	})

	t.Run("stale vantage holds nothing", func(t *testing.T) {
		var events []string
		plane, join := relPlane(window, &events)
		a, dead := join(0), join(1)
		old := relReport(1, 0, 0, t0.Add(-5*units.Millisecond), 1000)
		dead.NoteLive(old.Time)
		dead.Report(&old)
		a.NoteLive(t0)
		trigger := relReport(0, 1, 0, t0, hot)
		a.Report(&trigger)
		after := relReport(0, 2, 0, t0+1, 1000)
		a.Report(&after)
		if len(events) != 0 {
			t.Fatalf("emitted while the silent vantage was still counted live")
		}
		plane.Tick(t0 + 2) // 5 ms of silence > StaleAfter
		if !dead.Stale() {
			t.Fatalf("silent vantage not flagged stale")
		}
		if len(events) != 1 {
			t.Fatalf("%d events after the silent vantage went stale, want 1", len(events))
		}
	})
}
