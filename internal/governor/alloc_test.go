package governor_test

import (
	"testing"

	"planck/internal/governor"
	"planck/internal/packet"
	"planck/internal/sflow"
	"planck/internal/stats"
	"planck/internal/topo"
	"planck/internal/units"
)

// TestEstimatorUpdatesDoNotAllocate pins the estimator's per-packet
// sFlow offer and per-tick counter fold as allocation-free, counted over
// one run of 5000 calls: AllocsPerRun rounds its mean down, so a mean
// over many runs would miss an occasional allocation.
func TestEstimatorUpdatesDoNotAllocate(t *testing.T) {
	est := governor.NewRateEstimator(governor.EstimatorConfig{
		SFlow: sflow.Config{SampleRate: 64, ControlPlaneCap: 200000},
		Seed:  1,
	}, 32)
	key := packet.FlowKey{
		SrcIP: topo.HostIP(0), DstIP: topo.HostIP(1),
		SrcPort: 1000, DstPort: 5001, Proto: packet.IPProtocolTCP,
	}
	var queued, dropped stats.Counter
	var at units.Time
	i := 0
	if a := testing.AllocsPerRun(1, func() {
		for range 5000 {
			est.Observe(at, i&15, key, 1500)
			queued.Add(1500)
			if i&3 == 0 {
				dropped.Add(1500)
			}
			est.RecordMirrorCounters(at, i&15, queued, dropped)
			i++
			at = at.Add(1200) // ≈10 Gbps of 1500 B frames
		}
	}); a != 0 {
		t.Errorf("Observe + RecordMirrorCounters allocate %.0f times in 5000 calls", a)
	}
}
