package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"planck/internal/packet"
	"planck/internal/units"
)

var (
	testKey = packet.FlowKey{
		SrcIP: packet.IPv4{10, 0, 0, 1}, DstIP: packet.IPv4{10, 0, 0, 9},
		SrcPort: 1000, DstPort: 5001, Proto: packet.IPProtocolTCP,
	}
	testMAC = packet.MAC{2, 9, 0, 0, 0, 3}
)

// driveFullLoop walks one span through every stage with strictly
// increasing timestamps and returns its ID.
func driveFullLoop(tr *Tracer, base units.Time) uint64 {
	id := tr.NextID()
	tr.Begin(id, base.Add(200*units.Microsecond), "sw0", 2, 1, 9*units.Gbps, 10*units.Gbps)
	tr.StampCapture(base) // back-date SampleAt to the capture time
	tr.MarkQueued(id, base.Add(300*units.Microsecond))
	tr.RecordRetry(id, 500*units.Microsecond)
	tr.MarkDelivered(id, base.Add(900*units.Microsecond))
	tr.MarkDecided(id, base.Add(1000*units.Microsecond), Decision{
		EpochNew: 2, ViaARP: false, Flow: testKey, NewMAC: testMAC,
		SrcHost: 1, DstHost: 9, Tree: 3, Changes: 2,
	})
	tr.MarkActuated(id, base.Add(3*units.Millisecond))
	tr.MarkActuated(id, base.Add(3200*units.Microsecond))
	tr.NoteResolve(base.Add(5*units.Millisecond), testKey, testMAC, 2)
	return id
}

func TestFullLoopConverges(t *testing.T) {
	tr := New(16)
	id := driveFullLoop(tr, units.Time(units.Millisecond))

	if n := tr.ActiveCount(); n != 0 {
		t.Fatalf("ActiveCount = %d after convergence", n)
	}
	spans := tr.Recorder().Snapshot()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.ID != id || s.Outcome != OutcomeConverged {
		t.Fatalf("span %+v, want id %d converged", s, id)
	}
	if !s.Complete() {
		t.Fatalf("converged span incomplete: %+v", s)
	}
	if s.SampleAt != units.Time(units.Millisecond) {
		t.Errorf("SampleAt = %v, want the capture time", s.SampleAt)
	}
	if s.EpochOld != 1 || s.EpochNew != 2 {
		t.Errorf("epochs %d→%d, want 1→2", s.EpochOld, s.EpochNew)
	}
	if s.Retries != 1 || s.BackoffTotal != 500*units.Microsecond {
		t.Errorf("retries %d backoff %v, want 1 / 500µs", s.Retries, s.BackoffTotal)
	}
	if s.Actuations != 2 {
		t.Errorf("actuations = %d, want 2", s.Actuations)
	}

	// The per-stage durations must sum exactly to the total wall time.
	var sum units.Duration
	for _, d := range s.Breakdown() {
		if d < 0 {
			t.Fatalf("negative stage duration in %v", s.Breakdown())
		}
		sum += d
	}
	if sum != s.Total() {
		t.Errorf("stage sum %v != total %v", sum, s.Total())
	}
	if want := 5 * units.Millisecond; s.Total() != want {
		t.Errorf("total = %v, want %v (capture 1ms → converge 6ms)", s.Total(), want)
	}
	if tr.Converged.Value() != 1 || tr.Completed.Value() != 1 {
		t.Errorf("counters converged=%d completed=%d, want 1/1",
			tr.Converged.Value(), tr.Completed.Value())
	}
}

func TestClampKeepsStagesMonotone(t *testing.T) {
	tr := New(16)
	id := tr.NextID()
	// The lab stamps samples tick+overhead, so the event's nominal time
	// can exceed the engine time later marks run at.
	tr.Begin(id, units.Time(10*units.Millisecond), "sw0", 1, 1, 9*units.Gbps, 10*units.Gbps)
	tr.MarkQueued(id, units.Time(9*units.Millisecond))    // before detection
	tr.MarkDelivered(id, units.Time(8*units.Millisecond)) // before queue
	tr.MarkDecided(id, units.Time(7*units.Millisecond), Decision{
		EpochNew: 2, Flow: testKey, NewMAC: testMAC, Changes: 1,
	})
	tr.MarkActuated(id, units.Time(6*units.Millisecond))
	tr.NoteResolve(units.Time(5*units.Millisecond), testKey, testMAC, 2)

	spans := tr.Recorder().Snapshot()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	ends := []units.Time{s.SampleAt, s.DetectAt, s.QueuedAt, s.DeliveredAt,
		s.DecidedAt, s.ActuatedAt, s.ConvergedAt}
	for i := 1; i < len(ends); i++ {
		if ends[i] < ends[i-1] {
			t.Fatalf("stage %d timestamp %v precedes %v; marks must clamp monotone",
				i, ends[i], ends[i-1])
		}
	}
}

func TestOutcomes(t *testing.T) {
	tr := New(16)

	// No subscriber committed a reroute.
	noRR := tr.NextID()
	tr.Begin(noRR, 1000, "sw0", 0, 1, 9*units.Gbps, 10*units.Gbps)
	tr.MarkDelivered(noRR, 2000)
	tr.FinishCause(noRR)

	// Reroute onto the tree already ridden: empty diff.
	noCh := tr.NextID()
	tr.Begin(noCh, 3000, "sw0", 0, 1, 9*units.Gbps, 10*units.Gbps)
	tr.MarkDelivered(noCh, 4000)
	if tr.MarkDecided(noCh, 5000, Decision{EpochNew: 2, Changes: 0}) {
		t.Error("MarkDecided claimed a no-op commit")
	}

	// Supervisor drops.
	stale := tr.NextID()
	tr.Begin(stale, 6000, "sw0", 0, 1, 9*units.Gbps, 10*units.Gbps)
	tr.Drop(stale, OutcomeDroppedStale)

	// End-of-run flush.
	open := tr.NextID()
	tr.Begin(open, 8000, "sw0", 0, 1, 9*units.Gbps, 10*units.Gbps)
	tr.FlushOpen()

	want := map[uint64]Outcome{
		noRR: OutcomeNoReroute, noCh: OutcomeNoChange,
		stale: OutcomeDroppedStale,
		open:  OutcomeOrphaned,
	}
	for _, s := range tr.Recorder().Snapshot() {
		if s.Outcome != want[s.ID] {
			t.Errorf("span %d outcome %v, want %v", s.ID, s.Outcome, want[s.ID])
		}
	}
	counts := tr.OutcomeCounts()
	for _, o := range []Outcome{OutcomeNoReroute, OutcomeNoChange,
		OutcomeDroppedStale, OutcomeOrphaned} {
		if counts[o] != 1 {
			t.Errorf("OutcomeCounts[%v] = %d, want 1", o, counts[o])
		}
	}
	if tr.ActiveCount() != 0 {
		t.Errorf("%d spans still active", tr.ActiveCount())
	}
}

func TestWatchMatching(t *testing.T) {
	arm := func(viaARP bool) *Tracer {
		tr := New(16)
		id := tr.NextID()
		tr.Begin(id, 1000, "sw0", 2, 1, 9*units.Gbps, 10*units.Gbps)
		tr.MarkDelivered(id, 2000)
		tr.MarkDecided(id, 3000, Decision{
			EpochNew: 2, ViaARP: viaARP, Flow: testKey, NewMAC: testMAC, Changes: 1,
		})
		return tr
	}
	converged := func(tr *Tracer) bool { return tr.Converged.Value() == 1 }

	// Old epoch: in-flight pre-reroute sample must not converge the span.
	tr := arm(false)
	tr.NoteResolve(4000, testKey, testMAC, 1)
	if converged(tr) {
		t.Error("converged on a sample resolved through the old epoch")
	}
	// Old label through the new epoch: still the old path.
	tr.NoteResolve(5000, testKey, packet.MAC{2, 0, 0, 0, 0, 9}, 2)
	if converged(tr) {
		t.Error("converged on the old shadow-MAC label")
	}
	// Different flow entirely.
	other := testKey
	other.DstPort = 9999
	tr.NoteResolve(6000, other, testMAC, 2)
	if converged(tr) {
		t.Error("converged on an unrelated flow")
	}
	// The real signal.
	tr.NoteResolve(7000, testKey, testMAC, 2)
	if !converged(tr) {
		t.Error("did not converge on new epoch + new label + matching flow")
	}

	// ARP (pair) moves match on the IP pair only: any port pair of the
	// moved src/dst converges the span.
	tr = arm(true)
	pairSample := testKey
	pairSample.SrcPort, pairSample.DstPort = 31000, 80
	tr.NoteResolve(4000, pairSample, testMAC, 2)
	if !converged(tr) {
		t.Error("ARP watch did not match on the IP pair")
	}
}

func TestRingWrapKeepsConvergedSpans(t *testing.T) {
	tr := New(8)
	convID := driveFullLoop(tr, units.Time(units.Millisecond))

	// Wrap the 8-slot main ring with no-reroute spans.
	for i := 0; i < 20; i++ {
		id := tr.NextID()
		tr.Begin(id, units.Time(i)*1000+10000, "sw0", 0, 1, 9*units.Gbps, 10*units.Gbps)
		tr.MarkDelivered(id, units.Time(i)*1000+11000)
		tr.FinishCause(id)
	}

	for _, s := range tr.Recorder().Snapshot() {
		if s.ID == convID {
			t.Fatal("main ring should have wrapped past the converged span")
		}
	}
	conv := tr.ConvergedSpans()
	if len(conv) != 1 || conv[0].ID != convID {
		t.Fatalf("ConvergedSpans = %+v, want the wrapped span %d", conv, convID)
	}
	if got := tr.OutcomeCounts()[OutcomeNoReroute]; got != 20 {
		t.Errorf("no-reroute count = %d, want 20 (must survive ring wrap)", got)
	}
}

// TestIdleNoteResolveDoesNotAllocate counts one run of 1000 calls, so
// that a single allocation counts: AllocsPerRun rounds its mean down.
func TestIdleNoteResolveDoesNotAllocate(t *testing.T) {
	tr := New(16)
	allocs := testing.AllocsPerRun(1, func() {
		for range 1000 {
			tr.NoteResolve(1000, testKey, testMAC, 5)
		}
	})
	if allocs != 0 {
		t.Errorf("idle NoteResolve allocates %.0f times in 1000 calls, want 0", allocs)
	}
}

func TestActiveTableEviction(t *testing.T) {
	tr := New(16)
	for i := 0; i < maxActive+10; i++ {
		id := tr.NextID()
		tr.Begin(id, units.Time(i+1)*1000, "sw0", 0, 1, 9*units.Gbps, 10*units.Gbps)
	}
	if n := tr.ActiveCount(); n > maxActive {
		t.Fatalf("ActiveCount = %d, exceeds maxActive %d", n, maxActive)
	}
	if got := tr.OutcomeCounts()[OutcomeOrphaned]; got != 10 {
		t.Errorf("orphaned = %d, want 10 evictions", got)
	}
}

func TestWriteJSONAndBreakdown(t *testing.T) {
	tr := New(16)
	driveFullLoop(tr, units.Time(units.Millisecond))

	var buf bytes.Buffer
	if err := tr.Recorder().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &spans); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if len(spans) != 1 || spans[0]["outcome"] != "converged" {
		t.Fatalf("JSON spans = %+v", spans)
	}

	buf.Reset()
	tr.WriteBreakdown(&buf)
	out := buf.String()
	for _, want := range []string{"1 converged", "detection", "convergence", "stage sum"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
}
