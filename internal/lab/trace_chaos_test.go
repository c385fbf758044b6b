package lab

import (
	"bytes"
	"testing"

	"planck/internal/core"
	"planck/internal/obs/trace"
	"planck/internal/te"
	"planck/internal/topo"
	"planck/internal/units"
)

// checkSpanWellFormed asserts the trace invariants every emitted span
// must satisfy regardless of faults: the stage timestamps that were
// reached are monotone in control-loop order, and a decided span records
// a routing epoch that actually advanced.
func checkSpanWellFormed(t *testing.T, s trace.Span) {
	t.Helper()
	stages := []struct {
		name string
		at   units.Time
	}{
		{"sample", s.SampleAt}, {"detect", s.DetectAt}, {"queued", s.QueuedAt},
		{"delivered", s.DeliveredAt}, {"decided", s.DecidedAt},
		{"actuated", s.ActuatedAt}, {"converged", s.ConvergedAt},
	}
	var last units.Time
	var lastName string
	for _, st := range stages {
		if st.at == 0 {
			continue
		}
		if st.at < last {
			t.Fatalf("span %d (%v): %s at %v precedes %s at %v",
				s.ID, s.Outcome, st.name, st.at, lastName, last)
		}
		last, lastName = st.at, st.name
	}
	if s.DecidedAt != 0 && s.EpochNew <= s.EpochOld {
		t.Fatalf("span %d decided but epoch did not advance: %d → %d",
			s.ID, s.EpochOld, s.EpochNew)
	}
	if s.Outcome == trace.OutcomeConverged && !s.Complete() {
		t.Fatalf("span %d converged with missing stages: %+v", s.ID, s)
	}
}

func checkAllSpansWellFormed(t *testing.T, tr *trace.Tracer) (total int) {
	t.Helper()
	for _, spans := range [][]trace.Span{tr.Recorder().Snapshot(), tr.ConvergedSpans()} {
		seen := map[uint64]bool{}
		for _, s := range spans {
			if seen[s.ID] {
				t.Fatalf("span ID %d recorded twice in one ring", s.ID)
			}
			seen[s.ID] = true
			checkSpanWellFormed(t, s)
			total++
		}
	}
	return total
}

// TestChaosTracesWellFormed re-runs the canonical fault scenario — dark
// mirror burst, collector crash with supervised restart, controller
// partition — with the control-loop tracer attached, and demands every
// span the flight recorder holds is well-formed: no fault, restart, or
// retry may produce a span whose stage timestamps run backwards. It also
// checks the supervisor dumped the flight recorder on the dark-feed and
// crash transitions.
func TestChaosTracesWellFormed(t *testing.T) {
	t.Run("serial", runChaosTraced)
}

func runChaosTraced(t *testing.T) {
	tracer := trace.New(512)
	var dumps bytes.Buffer
	opts := chaosOptions()
	opts.Tracer = tracer
	opts.TraceDump = &dumps

	l, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	applyFaults(t, l, chaosSpec)
	startChaosTraffic(t, l)
	l.Run(chaosRunFor)
	tracer.FlushOpen()

	if n := checkAllSpansWellFormed(t, tracer); n == 0 {
		t.Fatal("flight recorder holds no spans after a congested chaos run")
	}
	if tracer.Completed.Value() == 0 {
		t.Fatal("no spans completed")
	}
	// The single-switch topology has no alternate path, so no span can
	// converge — but the loop must still classify every event.
	counts := tracer.OutcomeCounts()
	if counts[trace.OutcomeNoReroute] == 0 && counts[trace.OutcomeDroppedStale] == 0 {
		t.Errorf("no terminal outcomes recorded: %v", counts)
	}
	if dumps.Len() == 0 {
		t.Error("supervisor never dumped the flight recorder despite dark-feed and crash transitions")
	}
	t.Logf("%d spans, outcomes %v, %d dump bytes", tracer.Completed.Value(), counts, dumps.Len())
}

// TestTraceConvergesAcrossRestart runs the full control loop — fat tree,
// PlanckTE rerouting over shadow-MAC paths, supervised collectors — with
// every collector crashing mid-run, and demands the tracer still
// produces complete converged spans: detection through re-convergence
// survives a supervised restart, and every recorded span stays
// well-formed.
func TestTraceConvergesAcrossRestart(t *testing.T) {
	tracer := trace.New(512)
	l, err := New(Options{
		Net:             topo.FatTree16(units.Rate10G),
		Mirror:          true,
		Seed:            7,
		CollectorConfig: core.Config{UtilThreshold: 0.05},
		Supervise:       true,
		Tracer:          tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	applyFaults(t, l, "crash@30ms")
	te.NewPlanckTE(l.Ctrl, te.DefaultPlanckTEConfig())

	// The stride workload: pod-crossing flows that collide on core links
	// under random initial trees, giving the TE real reroutes.
	for i := 0; i < 8; i++ {
		if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(i+8), uint16(5001+i), 100<<20, int32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	l.Run(100 * units.Millisecond)
	tracer.FlushOpen()

	checkAllSpansWellFormed(t, tracer)
	if got := tracer.Converged.Value(); got == 0 {
		t.Fatalf("no converged spans; the TE must reroute and the moved flows re-resolve (outcomes %v)",
			tracer.OutcomeCounts())
	}
	restarts := 0
	for _, sup := range l.Supervisors {
		if sup != nil {
			restarts += int(sup.Restarts.Value())
		}
	}
	if restarts == 0 {
		t.Fatal("no supervised restarts; the crash fault did not bite")
	}
	t.Logf("converged=%d completed=%d restarts=%d",
		tracer.Converged.Value(), tracer.Completed.Value(), restarts)
}
