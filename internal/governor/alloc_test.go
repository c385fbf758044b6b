package governor_test

import (
	"testing"

	"planck/internal/governor"
	"planck/internal/stats"
	"planck/internal/units"
)

// TestEstimatorUpdatesDoNotAllocate pins the estimator's per-tick
// counter fold and the governor's per-tick read of it (Aggregate and a
// per-port Estimate) as allocation-free, counted over one run of 5000
// calls: AllocsPerRun rounds its mean down, so a mean over many runs
// would miss an occasional allocation.
func TestEstimatorUpdatesDoNotAllocate(t *testing.T) {
	est := governor.NewRateEstimator(32)
	var queued, dropped stats.Counter
	var at units.Time
	i := 0
	if a := testing.AllocsPerRun(1, func() {
		for range 5000 {
			queued.Add(1500)
			if i&3 == 0 {
				dropped.Add(1500)
			}
			est.RecordMirrorCounters(at, i&15, queued, dropped)
			estSink += est.Aggregate(at).Effective + est.Estimate(at, i&15).Effective
			i++
			at = at.Add(1200) // ≈10 Gbps of 1500 B frames
		}
	}); a != 0 {
		t.Errorf("RecordMirrorCounters + Aggregate + Estimate allocate %.0f times in 5000 calls", a)
	}
}

// estSink keeps the estimates the allocation window reads alive.
var estSink float64
