package agg

import (
	"fmt"
	"reflect"
	"testing"

	"planck/internal/core"
	"planck/internal/units"
)

// mergeModel is the specification oracle for EventMerger: the same
// semantics written as plainly as possible — a watermark and a map of
// per-link emission anchors. The fuzz target drives both
// implementations with the same operation sequence and requires
// identical emissions and counters.
type mergeModel struct {
	cooldown  units.Duration
	anchors   map[LinkKey]units.Time
	watermark units.Time
	log       []string
	nEmit     int64
	nDedup    int64
	nLate     int64
}

func newMergeModel(cooldown units.Duration) *mergeModel {
	return &mergeModel{cooldown: cooldown, anchors: map[LinkKey]units.Time{}}
}

func (m *mergeModel) offer(link LinkKey, v VantageID, seq uint64, t units.Time) bool {
	if t < m.watermark {
		m.nLate++
		return false
	}
	m.watermark = t
	if last, ok := m.anchors[link]; ok && t.Sub(last) < m.cooldown {
		m.nDedup++
		return true
	}
	m.anchors[link] = t
	m.nEmit++
	m.log = append(m.log, renderMerged(link, v, seq, t))
	return true
}

func (m *mergeModel) advanceTo(t units.Time) {
	if t > m.watermark {
		m.watermark = t
	}
}

func renderMerged(link LinkKey, v VantageID, seq uint64, t units.Time) string {
	return fmt.Sprintf("t=%d sw=%d port=%d v=%d seq=%d", t, link.Switch, link.Port, v, seq)
}

// FuzzAggregateMerge decodes the fuzz input into a sequence of
// Offer/AdvanceTo operations — out-of-order arrivals, duplicate
// candidates from overlapping vantages, epoch/time skew, late events —
// and checks EventMerger's emissions and counters against the
// specification model, operation by operation.
func FuzzAggregateMerge(f *testing.F) {
	// Seeds: ties at one instant across links and vantages; spacing at
	// exactly the cooldown; a late arrival behind the watermark; heavy
	// duplication on one link; interleaved advances; advances to the
	// newest offer.
	f.Add([]byte{0, 10, 0, 0, 0, 10, 1, 1, 0, 10, 2, 0, 2, 10})
	f.Add([]byte{0, 10, 0, 0, 0, 110, 0, 0, 2, 120, 0, 5, 0, 0})
	f.Add([]byte{0, 50, 0, 0, 2, 50, 0, 20, 0, 0, 3})
	f.Add([]byte{0, 30, 1, 0, 0, 30, 1, 1, 0, 30, 1, 2, 0, 31, 1, 3, 2, 200, 3})
	f.Add([]byte{0, 5, 0, 0, 2, 5, 0, 4, 0, 1, 0, 9, 0, 2, 2, 9, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		const cooldown = 100 * units.Microsecond

		var got []string
		m := NewEventMerger(cooldown, func(ev core.CongestionEvent) {
			got = append(got, renderMerged(
				LinkKey{Switch: int32(ev.Util), Port: int32(ev.Port)},
				VantageID(ev.Vantage), ev.Epoch, ev.Time))
		})
		model := newMergeModel(cooldown)

		var seqs [4]uint64
		base := units.Time(0)
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		for i < len(data) {
			switch op := next() % 4; op {
			case 0, 1: // Offer: time delta, link, vantage
				// Timestamps wander forward and backward around a drifting
				// base, producing out-of-order and late arrivals.
				d := units.Duration(int64(next())-96) * units.Microsecond
				base = base.Add(d)
				lb := next()
				link := LinkKey{Switch: int32(lb % 3), Port: int32((lb / 3) % 2)}
				v := VantageID(next() % 4)
				seqs[v]++
				ev := core.CongestionEvent{
					Time: base, Port: int(link.Port),
					Util: units.Rate(link.Switch), Vantage: int(v), Epoch: seqs[v],
				}
				okGot := m.Offer(link, ev)
				okWant := model.offer(link, v, seqs[v], base)
				if okGot != okWant {
					t.Fatalf("op %d: Offer accepted=%v model=%v", i, okGot, okWant)
				}
			case 2: // AdvanceTo a point near the base time
				d := units.Duration(int64(next())-64) * units.Microsecond
				at := base.Add(d)
				m.AdvanceTo(at)
				model.advanceTo(at)
			case 3: // AdvanceTo the base time itself
				m.AdvanceTo(base)
				model.advanceTo(base)
			}
			if !reflect.DeepEqual(got, model.log) {
				t.Fatalf("op %d: emissions diverge:\n got %v\nwant %v", i, got, model.log)
			}
		}
		if m.Emitted != model.nEmit || m.Deduped != model.nDedup || m.Late != model.nLate {
			t.Fatalf("counters (emit=%d dedup=%d late=%d) != model (%d %d %d)",
				m.Emitted, m.Deduped, m.Late, model.nEmit, model.nDedup, model.nLate)
		}
	})
}

// TestEventMergerEdgeCases pins the exact boundary semantics the fuzz
// oracle can only reach probabilistically.
func TestEventMergerEdgeCases(t *testing.T) {
	const cd = 100 * units.Microsecond
	ev := func(tm units.Time) core.CongestionEvent { return core.CongestionEvent{Time: tm} }
	var emitted []units.Time
	m := NewEventMerger(cd, func(e core.CongestionEvent) { emitted = append(emitted, e.Time) })
	link := LinkKey{Switch: 1, Port: 2}

	// Sync-mode pattern: Offer then AdvanceTo(same t) emits immediately.
	m.Offer(link, ev(1000))
	m.AdvanceTo(1000)
	if len(emitted) != 1 {
		t.Fatalf("sync offer not emitted: %v", emitted)
	}
	// A second candidate at the same instant is accepted (t == watermark
	// is not late) and deduped at emission.
	if !m.Offer(link, ev(1000)) {
		t.Fatal("offer at watermark rejected as late")
	}
	m.AdvanceTo(1000)
	if m.Deduped != 1 {
		t.Fatalf("same-instant duplicate not deduped: %d", m.Deduped)
	}
	// Spacing strictly inside the cooldown is deduped...
	m.Offer(link, ev(1000+units.Time(cd)-1))
	m.AdvanceTo(1000 + units.Time(cd) - 1)
	if m.Deduped != 2 {
		t.Fatalf("inside-cooldown candidate not deduped: %d", m.Deduped)
	}
	// ...spacing exactly at the cooldown is emitted (matching the
	// collector's strict < comparison).
	m.Offer(link, ev(1000+units.Time(cd)))
	m.AdvanceTo(1000 + units.Time(cd))
	if len(emitted) != 2 {
		t.Fatalf("exact-cooldown candidate suppressed: %v", emitted)
	}
	// Behind the watermark is late.
	if m.Offer(link, ev(999)) {
		t.Fatal("late candidate accepted")
	}
	if m.Late != 1 {
		t.Fatalf("late counter %d", m.Late)
	}
	// Links dedup independently.
	m2 := NewEventMerger(cd, nil)
	a := LinkKey{Switch: 2, Port: 0}
	b := LinkKey{Switch: 1, Port: 1}
	m2.Offer(a, core.CongestionEvent{Time: 500, Util: 2, Port: 0})
	m2.Offer(b, core.CongestionEvent{Time: 500, Util: 1, Port: 1})
	if m2.Emitted != 2 || m2.Deduped != 0 {
		t.Fatalf("independent links interfered: emit=%d dedup=%d", m2.Emitted, m2.Deduped)
	}
}
