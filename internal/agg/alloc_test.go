package agg_test

import (
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/topo"
	"planck/internal/units"
)

// TestVantageReportDoesNotAllocate pins the plane's per-sample merge as
// allocation-free, both for a plain update of a resident flow and for a
// rate-updating sample on a link held inside its event cooldown.
func TestVantageReportDoesNotAllocate(t *testing.T) {
	for _, hot := range []bool{false, true} {
		p := agg.New(agg.Config{})
		v := p.Join(0, "sw0", 8, units.Rate10G)
		p.Subscribe(func(core.CongestionEvent) {})
		// Two samples one 300 µs window apart give each flow a rate of
		// perWindow bytes per 300 µs: ~40 Mbps, or ~10 Gbps when hot.
		perWindow := uint32(1500)
		if hot {
			perWindow = 375_000
		}
		at := units.Time(units.Millisecond)
		reps := make([]core.FlowReport, 64)
		for i := range reps {
			est := core.NewRateEstimator()
			est.Observe(0, 0)
			est.Observe(units.Time(300*units.Microsecond), perWindow)
			rate, _, ok := est.Rate()
			reps[i] = core.FlowReport{
				Time: at,
				Key: packet.FlowKey{
					SrcIP: topo.HostIP(0), DstIP: topo.HostIP(8),
					SrcPort: uint16(1000 + i), DstPort: 5001, Proto: packet.IPProtocolTCP,
				},
				Rate: rate, RateOK: ok, RateUpdated: hot,
			}
			v.Report(&reps[i])
		}
		i := 0
		if a := testing.AllocsPerRun(1000, func() {
			rep := &reps[i%len(reps)]
			rep.Time = at
			v.Report(rep)
			i++
			at = at.Add(1) // inside the 250 µs cooldown
		}); a != 0 {
			t.Errorf("hot=%v: Vantage.Report allocates %.1f per sample", hot, a)
		}
		if hot && p.SuppressedCandidates() == 0 {
			t.Error("no candidate suppressed; the hot leg never reached the cooldown check")
		}
	}
}
