package agg_test

import (
	"runtime"
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/topo"
	"planck/internal/units"
)

// TestVantageReportDoesNotAllocate pins the plane's per-sample merge as
// allocation-free: for a plain update of a resident flow, for a
// rate-updating sample on a link held inside its event cooldown, and for
// hot samples spaced past the cooldown, each of which emits an event
// listing the link's flows.
func TestVantageReportDoesNotAllocate(t *testing.T) {
	for _, leg := range []struct {
		name string
		hot  bool
		step units.Duration
	}{
		{"cold", false, 1},
		{"hot, inside the cooldown", true, 1},
		{"hot, past the cooldown", true, 300 * units.Microsecond},
	} {
		p := agg.New(agg.Config{})
		v := p.Join(0, "sw0", 8, units.Rate10G)
		events := 0
		p.Subscribe(func(ev core.CongestionEvent) {
			if len(ev.Flows) > 0 {
				events++
			}
		})
		// Two samples one 300 µs window apart give each flow a rate of
		// perWindow bytes per 300 µs: ~40 Mbps, or ~10 Gbps when hot.
		perWindow := uint32(1500)
		if leg.hot {
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
				Rate: rate, RateOK: ok, RateUpdated: leg.hot,
			}
			v.Report(&reps[i])
		}
		i := 0
		report := func() {
			rep := &reps[i%len(reps)]
			rep.Time = at
			v.Report(rep)
			i++
			at = at.Add(leg.step)
		}
		for range 2 * len(reps) { // every flow reported at the leg's spacing
			report()
		}
		// One run of 1000 reports (after as many warming), so that a
		// single allocation counts: AllocsPerRun rounds its mean down.
		warm := events
		if a := testing.AllocsPerRun(1, func() {
			for range 1000 {
				report()
			}
		}); a != 0 {
			t.Errorf("%s: Vantage.Report allocates %.0f times in 1000 samples", leg.name, a)
		}
		switch {
		case leg.step == 1 && leg.hot && p.SuppressedCandidates() == 0:
			t.Errorf("%s: no candidate suppressed; the leg never reached the cooldown check", leg.name)
		case leg.step > 1 && events-warm < 2000:
			t.Errorf("%s: %d events over 2000 reports, want one each", leg.name, events-warm)
		}
	}
}

// TestPlaneMemoryFlatUnderChurn folds ten waves of 100k never-seen
// flows into one switch's records, expiring each wave once it has been
// measured. Expired records are recycled, so the heap retained with one
// wave live must not grow from wave to wave, and a live merged record
// must cost no more than 195 bytes (177.4 measured on linux/amd64).
func TestPlaneMemoryFlatUnderChurn(t *testing.T) {
	const waves, perWave = 10, 100_000
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	p := agg.New(agg.Config{})
	v := p.Join(0, "sw0", 8, units.Rate10G)
	rep := core.FlowReport{DstMAC: packet.MAC{2, 0, 0, 0, 0, 1}, Rate: 1000, RateOK: true}
	at := units.Time(0)
	var second int64
	for w := 1; w <= waves; w++ {
		for i := 0; i < perWave; i++ {
			id := w*perWave + i
			rep.Key = packet.FlowKey{
				SrcIP: packet.IPv4{10, byte(id >> 16), byte(id >> 8), byte(id)}, DstIP: topo.HostIP(1),
				SrcPort: uint16(id), DstPort: 80, Proto: packet.IPProtocolTCP,
			}
			rep.Time, rep.OutPort = at, i%8
			v.Report(&rep)
			at = at.Add(10)
		}
		if n := p.FlowCount(); n != perWave {
			t.Fatalf("wave %d: %d live records, want %d", w, n, perWave)
		}
		live := heap() - base
		if per := float64(live) / perWave; per > 195 {
			t.Fatalf("wave %d: a live merged record costs %.1f bytes; the budget is 195", w, per)
		}
		switch w {
		case 2:
			second = live
		case waves:
			if float64(live) > 1.1*float64(second) {
				t.Fatalf("retained heap grew from %d B after wave 2 to %d B after wave %d", second, live, w)
			}
			t.Logf("retained heap %d B after wave 2, %d B after wave %d (%.1f B per live record)",
				second, live, w, float64(live)/perWave)
		}
		at = at.Add(units.Second)
		if n := p.ExpireFlows(at, units.Millisecond); n != perWave {
			t.Fatalf("wave %d: expired %d records, want %d", w, n, perWave)
		}
	}
	runtime.KeepAlive(p)
}
