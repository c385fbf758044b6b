package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"planck/internal/units"
)

type recorder struct {
	times []units.Time
	tags  []int
	tag   int
}

func (r *recorder) Handle(now units.Time, _ *Packet) {
	r.times = append(r.times, now)
	r.tags = append(r.tags, r.tag)
}

func TestEventOrdering(t *testing.T) {
	eng := New()
	var r recorder
	times := []units.Duration{500, 100, 300, 100, 200}
	for _, d := range times {
		eng.After(d, &r, nil)
	}
	eng.Run()
	if len(r.times) != len(times) {
		t.Fatalf("dispatched %d", len(r.times))
	}
	for i := 1; i < len(r.times); i++ {
		if r.times[i] < r.times[i-1] {
			t.Fatalf("out of order at %d: %v < %v", i, r.times[i], r.times[i-1])
		}
	}
	if eng.Now() != 500 {
		t.Fatalf("final time %v", eng.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	eng := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(100, Callback(func(units.Time) { got = append(got, i) }), nil)
	}
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	eng := New()
	var fired bool
	ev := eng.After(100, Callback(func(units.Time) { fired = true }), nil)
	eng.Cancel(ev)
	eng.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	eng := New()
	var count int
	for i := 1; i <= 10; i++ {
		eng.Schedule(units.Time(i*100), Callback(func(units.Time) { count++ }), nil)
	}
	eng.RunUntil(500)
	if count != 5 {
		t.Fatalf("ran %d events", count)
	}
	if eng.Now() != 500 {
		t.Fatalf("clock %v", eng.Now())
	}
	eng.Run()
	if count != 10 {
		t.Fatalf("remaining events: %d", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	eng := New()
	eng.RunUntil(12345)
	if eng.Now() != 12345 {
		t.Fatalf("clock %v", eng.Now())
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	eng := New()
	var at units.Time
	eng.Schedule(100, Callback(func(now units.Time) {
		eng.Schedule(50, Callback(func(now units.Time) { at = now }), nil)
	}), nil)
	eng.Run()
	if at != 100 {
		t.Fatalf("past event ran at %v", at)
	}
}

func TestStop(t *testing.T) {
	eng := New()
	var count int
	for i := 1; i <= 10; i++ {
		eng.Schedule(units.Time(i), Callback(func(units.Time) {
			count++
			if count == 3 {
				eng.stop()
			}
		}), nil)
	}
	eng.Run()
	if count != 3 {
		t.Fatalf("count %d", count)
	}
}

// Property: an arbitrary schedule dispatches in sorted order and exactly
// once per event.
func TestHeapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := New()
		var r recorder
		want := make([]units.Time, 0, n)
		for i := 0; i < int(n); i++ {
			at := units.Time(rng.Int63n(10000))
			want = append(want, at)
			eng.Schedule(at, &r, nil)
		}
		eng.Run()
		if len(r.times) != len(want) {
			return false
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if r.times[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTicker(t *testing.T) {
	eng := New()
	var ticks []units.Time
	var tk *Ticker
	tk = NewTicker(eng, 100, func(now units.Time) {
		ticks = append(ticks, now)
		if len(ticks) == 5 {
			tk.Stop()
		}
	})
	eng.Run()
	if len(ticks) != 5 {
		t.Fatalf("%d ticks", len(ticks))
	}
	for i, at := range ticks {
		if at != units.Time((i+1)*100) {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
}

func TestPacketPoolReuse(t *testing.T) {
	eng := New()
	p1 := eng.NewPacket()
	p1.PayloadLen = 99
	id1 := p1.ID
	eng.FreePacket(p1)
	p2 := eng.NewPacket()
	if p2.PayloadLen != 0 {
		t.Fatal("pooled packet not zeroed")
	}
	if p2.ID == id1 {
		t.Fatal("packet IDs must be unique")
	}
	if p2.FlowID != -1 {
		t.Fatal("fresh packet FlowID should be -1")
	}
}

func TestClonePacket(t *testing.T) {
	eng := New()
	p := eng.NewPacket()
	p.PayloadLen = 1460
	p.Seq = 77
	c := eng.ClonePacket(p)
	if c.PayloadLen != 1460 || c.Seq != 77 {
		t.Fatal("clone lost fields")
	}
	if c.ID == p.ID {
		t.Fatal("clone shares ID")
	}
}
