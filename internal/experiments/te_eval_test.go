package experiments

import (
	"testing"

	"planck/internal/lab"
	"planck/internal/te"
	"planck/internal/topo"
	"planck/internal/units"
)

// TestFig17SmallFlowHeadline verifies the paper's headline: with 50 MiB
// flows, PlanckTE tracks Optimal closely while Static (and polling at
// 1 s granularity, which cannot engineer flows this short) trails far
// behind.
func TestFig17SmallFlowHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fat-tree workloads")
	}
	const size = 50 << 20
	cells := Fig17(Fig17Params{
		Sizes:   []int64{size},
		Schemes: []Scheme{SchemeStatic, SchemePoll1s, SchemePlanckTE, SchemeOptimal},
		Timeout: 10 * units.Duration(units.Second),
		Seed:    51,
	})
	byScheme := map[Scheme]float64{}
	for _, c := range cells {
		byScheme[c.Scheme] = c.AvgGbps
	}
	t.Logf("\n%s", Fig17Table(cells).Render())

	opt := byScheme[SchemeOptimal]
	planck := byScheme[SchemePlanckTE]
	static := byScheme[SchemeStatic]
	poll1 := byScheme[SchemePoll1s]

	if opt < 4 {
		t.Fatalf("optimal only %.2f Gbps for 50 MiB flows", opt)
	}
	// PlanckTE within striking distance of Optimal (paper: 1-4%; allow
	// simulator slack).
	if planck < 0.70*opt {
		t.Fatalf("PlanckTE %.2f vs Optimal %.2f", planck, opt)
	}
	// Static suffers badly from collisions.
	if static > 0.75*opt {
		t.Fatalf("Static %.2f suspiciously close to Optimal %.2f", static, opt)
	}
	if planck < 1.15*static {
		t.Fatalf("PlanckTE %.2f not clearly better than Static %.2f", planck, static)
	}
	// Poll-1s cannot help 50 MiB flows (they finish before the first
	// poll); it should look like Static, far from PlanckTE.
	if poll1 > 0.8*planck {
		t.Fatalf("Poll-1s %.2f should trail PlanckTE %.2f on 50 MiB flows", poll1, planck)
	}
}

// TestFig14ShuffleCell runs one shuffle cell end to end, checking host
// completion accounting works under the dynamic workload.
func TestFig14ShuffleCell(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fat-tree workloads")
	}
	res := RunWorkload(WorkloadShuffle, SchemeOptimal, 4<<20, 53, 30*units.Duration(units.Second))
	if res.Completed != res.Total {
		t.Fatalf("completed %d/%d", res.Completed, res.Total)
	}
	if res.HostCompletion.N() != 16 {
		t.Fatalf("host completions %d", res.HostCompletion.N())
	}
}

// TestPlanckTEReproduciblePerSeed runs one seeded stride several times
// with PlanckTE attached. Every run must reroute the same flows and
// read the same goodput: no TE decision may hang on map iteration
// order.
func TestPlanckTEReproduciblePerSeed(t *testing.T) {
	run := func() (float64, int64) {
		l := mustLab(lab.Options{Net: topo.FatTree16(units.Rate10G), Mirror: true, Seed: 1})
		app := te.NewPlanckTE(l.Ctrl, te.DefaultPlanckTEConfig())
		res := RunWorkloadOn(l, WorkloadStride, 2<<20, 1, 10*units.Duration(units.Second))
		return res.AvgGoodput().Gigabits(), app.Reroutes
	}
	g0, r0 := run()
	for i := 1; i < 3; i++ {
		if g, r := run(); g != g0 || r != r0 {
			t.Fatalf("run %d: %.4f Gbps with %d reroutes; run 0: %.4f Gbps with %d reroutes", i, g, r, g0, r0)
		}
	}
}
