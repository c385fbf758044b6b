package experiments

import (
	"math"
	"testing"

	"planck/internal/governor"
	"planck/internal/units"
)

// TestGovernorExperiment checks the governor section of EXPERIMENTS.md
// at the seed planck-bench uses: the estimator's accuracy sweep tracks
// the switch's counter truth at every mirror load, and the 2:1 episode
// trace sheds and tunes at 11 ms, closes a loop and restores a shed
// port.
func TestGovernorExperiment(t *testing.T) {
	pts := GovernorAccuracy(GovAccuracyParams{Seed: 1})
	if len(pts) != 4 {
		t.Fatalf("%d accuracy points, want 1x, 2x, 4x and 8x", len(pts))
	}
	for i, pt := range pts {
		if want := 1 << i; pt.Factor != want {
			t.Fatalf("point %d at %dx, want %dx", i, pt.Factor, want)
		}
		if err := math.Abs(pt.Estimated - pt.Truth); err > 0.04 {
			t.Errorf("%dx: estimate %.3f is %.3f from counter truth %.3f, want ≤ 0.04",
				pt.Factor, pt.Estimated, err, pt.Truth)
		}
		// The table prints confidence to two places; 1x reads 0.979.
		if conf := math.Round(pt.Confidence*100) / 100; conf < 0.98 {
			t.Errorf("%dx: confidence %.3f, want ≥ 0.98 at two places", pt.Factor, pt.Confidence)
		}
	}
	t.Logf("\n%s", GovernorAccuracyTable(pts).Render())

	r := GovernorEpisode(1)
	if len(r.Episodes) == 0 {
		t.Fatal("no governor episode on a 2:1 oversubscribed mirror")
	}
	first := r.Episodes[0]
	if first.Kind != governor.EpisodeShedTune || first.At != units.Time(11*units.Millisecond) {
		t.Errorf("first episode %v at %v, want shed-tune at 11ms", first.Kind, first.At)
	}
	if r.Converged < 1 {
		t.Error("no episode converged")
	}
	restores := 0
	for _, ep := range r.Episodes {
		if ep.Kind == governor.EpisodeRestore {
			restores++
		}
	}
	if restores < 1 {
		t.Error("no shed port restored")
	}
	t.Logf("\n%s", GovernorEpisodeTable(r).Render())
}
