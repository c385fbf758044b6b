package core

import (
	"errors"
	"testing"

	"planck/internal/packet"
	"planck/internal/units"
)

// batchingEquiv adapts any collector to the equivalence harness so the
// harness's per-sample Ingest stream reaches the collector through
// IngestBatch calls of up to 64 samples. Every harness operation that
// observes or mutates collector state (expiry, mapper swaps, stats,
// queries) flushes the pending batch first, so the batched run sees the
// exact sample/operation interleaving the serial run does — which is
// precisely the claim under test: IngestBatch ≡ an Ingest loop.
type batchingEquiv struct {
	inner  equivCollector
	ts     []units.Time
	frames [][]byte
}

func (b *batchingEquiv) flush() {
	if len(b.ts) == 0 {
		return
	}
	_ = b.inner.IngestBatch(b.ts, b.frames) // per-frame errors are counted by the collector
	b.ts = b.ts[:0]
	b.frames = b.frames[:0]
}

func (b *batchingEquiv) Ingest(t units.Time, frame []byte) error {
	b.ts = append(b.ts, t)
	b.frames = append(b.frames, frame)
	if len(b.ts) >= 64 {
		b.flush()
	}
	return nil
}

func (b *batchingEquiv) IngestBatch(ts []units.Time, frames [][]byte) error {
	b.flush()
	return b.inner.IngestBatch(ts, frames)
}

func (b *batchingEquiv) Subscribe(fn func(ev CongestionEvent)) { b.inner.Subscribe(fn) }
func (b *batchingEquiv) SubscribeFlowBoundaries(fn func(t units.Time, key packet.FlowKey, kind BoundaryKind)) {
	b.inner.SubscribeFlowBoundaries(fn)
}
func (b *batchingEquiv) SetPortMapper(m RouteResolver) {
	b.flush()
	b.inner.SetPortMapper(m)
}
func (b *batchingEquiv) ExpireFlows(now units.Time, idle units.Duration) int {
	b.flush()
	return b.inner.ExpireFlows(now, idle)
}
func (b *batchingEquiv) LinkUtilization(p int) units.Rate {
	b.flush()
	return b.inner.LinkUtilization(p)
}
func (b *batchingEquiv) FlowRate(k packet.FlowKey) (units.Rate, bool) {
	b.flush()
	return b.inner.FlowRate(k)
}
func (b *batchingEquiv) Stats() Stats {
	b.flush()
	return b.inner.Stats()
}

// TestIngestBatchSerialEquivalence replays the adversarial stream
// through a per-sample serial collector and a batched serial collector
// and demands bit-for-bit identical observable state — the batched
// sample path must be a pure amortization, never a semantic change.
func TestIngestBatchSerialEquivalence(t *testing.T) {
	const samples = 12000
	for _, seed := range []int64{1, 42} {
		stream := mixedStream(seed, samples)
		serial := runEquiv(t, New(equivConfig()), stream, func() {})
		bc := &batchingEquiv{inner: New(equivConfig())}
		batched := runEquiv(t, bc, stream, bc.flush)
		compareRuns(t, "serial-batched", serial, batched)
	}
}

// TestIngestBatchNonMonotoneFallback checks the slow path: a batch
// whose timestamps regress must behave exactly like the Ingest loop —
// the regressing frames are rejected and summarized in a *BatchError,
// the rest of the batch still lands.
func TestIngestBatchNonMonotoneFallback(t *testing.T) {
	mk := func(seq uint32) []byte {
		return packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: 1000, DstPort: 2000, Seq: seq, Flags: packet.TCPAck, PayloadLen: 1460,
		})
	}
	us := func(n int64) units.Time { return units.Time(n * int64(units.Microsecond)) }
	ts := []units.Time{us(10), us(20), us(5), us(30), us(25), us(40)}
	var frames [][]byte
	for i := range ts {
		frames = append(frames, mk(uint32(i)*1460))
	}

	loop := New(equivConfig())
	loopErrs, firstIdx := 0, -1
	for i := range ts {
		if err := loop.Ingest(ts[i], frames[i]); err != nil {
			loopErrs++
			if firstIdx < 0 {
				firstIdx = i
			}
		}
	}

	batched := New(equivConfig())
	err := batched.IngestBatch(ts, frames)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("IngestBatch returned %v, want *BatchError", err)
	}
	if be.Failed != loopErrs || be.Index != firstIdx {
		t.Fatalf("BatchError{Failed:%d Index:%d}, loop saw %d errors first at %d",
			be.Failed, be.Index, loopErrs, firstIdx)
	}
	if ls, bs := loop.Stats(), batched.Stats(); ls != bs {
		t.Fatalf("stats diverged\n loop:    %+v\n batched: %+v", ls, bs)
	}
}
