package agg_test

import (
	"fmt"
	"reflect"
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/units"
)

// TestPlaneCooldownEdgeCases pins the boundaries of the plane's merge
// clock and link cooldowns, driven through Vantage.Report and
// AdvanceMerge: vantages 0 and 1 watch switch 0, vantage 2 watches
// switch 1, and every report closes a rate window with its flow at
// line rate, so each one is a candidate.
func TestPlaneCooldownEdgeCases(t *testing.T) {
	const cd = 100 * units.Microsecond
	t0 := units.Time(units.Millisecond)
	at := func(d units.Duration) units.Time { return t0.Add(d) }
	const (
		advance = -1 // AdvanceMerge(at)
		rejoin  = -2 // vantage 0's collector restarts
	)
	type step struct {
		v    int
		port int
		at   units.Time
	}
	cases := []struct {
		name             string
		steps            []step
		want             []string
		suppressed, late int64
	}{
		{"a repeat at the same instant is suppressed",
			[]step{{0, 1, t0}, {1, 1, t0}},
			[]string{"sw0/1 v1 @0ns"}, 1, 0},
		{"one nanosecond inside the cooldown is suppressed",
			[]step{{0, 1, t0}, {0, 1, at(cd - 1)}},
			[]string{"sw0/1 v1 @0ns"}, 1, 0},
		{"exactly one cooldown later is emitted",
			[]step{{0, 1, t0}, {1, 1, at(cd)}},
			[]string{"sw0/1 v1 @0ns", "sw0/1 v2 @100µs"}, 0, 0},
		{"a late report neither emits nor anchors",
			[]step{{0, 1, t0}, {advance, 0, at(5 * cd)}, {1, 1, at(9 * cd / 2)}, {0, 1, at(5 * cd)}},
			[]string{"sw0/1 v1 @0ns", "sw0/1 v1 @500µs"}, 0, 1},
		{"one port index on two switches, two ports on one switch",
			[]step{{0, 1, t0}, {2, 1, t0}, {1, 2, t0}},
			[]string{"sw0/1 v1 @0ns", "sw1/1 v3 @0ns", "sw0/2 v2 @0ns"}, 0, 0},
		{"the anchors survive Rejoin",
			[]step{{0, 1, t0}, {rejoin, 0, 0}, {0, 1, at(cd / 2)}},
			[]string{"sw0/1 v1 @0ns"}, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := agg.New(agg.Config{EventCooldown: cd})
			vs := []*agg.Vantage{
				p.Join(0, "sw0", 4, units.Rate10G),
				p.Join(0, "sw0", 4, units.Rate10G),
				p.Join(1, "sw1", 4, units.Rate10G),
			}
			var got []string
			p.Subscribe(func(ev core.CongestionEvent) {
				got = append(got, fmt.Sprintf("%s/%d v%d @%v", ev.SwitchName, ev.Port, ev.Vantage, ev.Time.Sub(t0)))
			})
			for _, s := range tc.steps {
				switch s.v {
				case advance:
					p.AdvanceMerge(s.at)
				case rejoin:
					vs[0].Rejoin()
				default:
					vs[s.v].Report(&core.FlowReport{
						Time: s.at,
						Key: packet.FlowKey{
							SrcIP: packet.IPv4{10, 0, 0, 1}, DstIP: packet.IPv4{10, 0, 1, 1},
							SrcPort: uint16(s.port), DstPort: 5001, Proto: packet.IPProtocolTCP,
						},
						OutPort: s.port,
						Rate:    units.Rate10G, RateOK: true, RateUpdated: true,
					})
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("events %q, want %q", got, tc.want)
			}
			if g := p.SuppressedCandidates(); g != tc.suppressed {
				t.Errorf("%d suppressed, want %d", g, tc.suppressed)
			}
			if g := p.LateReports(); g != tc.late {
				t.Errorf("%d late, want %d", g, tc.late)
			}
		})
	}
}
