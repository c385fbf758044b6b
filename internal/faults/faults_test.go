package faults

import (
	"reflect"
	"strings"
	"testing"

	"planck/internal/units"
)

func ms(n int64) units.Time { return units.Time(n) * units.Time(units.Millisecond) }

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("loss:0.5@20ms-40ms,crash@61ms,partition@80ms-95ms,skew:200us@10ms-,chandelay:5ms,dup")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Prob(KindLoss, ms(19)); got != 0 {
		t.Errorf("loss prob before window = %v, want 0", got)
	}
	if got := s.Prob(KindLoss, ms(20)); got != 0.5 {
		t.Errorf("loss prob at window start = %v, want 0.5", got)
	}
	if got := s.Prob(KindLoss, ms(40)); got != 0 {
		t.Errorf("loss prob at exclusive end = %v, want 0", got)
	}
	if got := s.CrashTimes(); len(got) != 1 || got[0] != ms(61) {
		t.Errorf("crash times = %v, want [61ms]", got)
	}
	if s.PartitionActive(ms(79)) || !s.PartitionActive(ms(80)) || s.PartitionActive(ms(95)) {
		t.Error("partition window boundaries wrong")
	}
	if got := s.Skew(ms(9)); got != 0 {
		t.Errorf("skew before window = %v, want 0", got)
	}
	if got := s.Skew(ms(1000)); got != 200*units.Microsecond {
		t.Errorf("open-ended skew = %v, want 200µs", got)
	}
	if got := s.ChannelDelay(0); got != 5*units.Millisecond {
		t.Errorf("always-on chandelay = %v, want 5ms", got)
	}
	if got := s.Prob(KindDup, ms(500)); got != 1 {
		t.Errorf("bare dup prob = %v, want 1", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",          // unknown kind
		"loss:1.5",       // probability out of range
		"loss:nope",      // unparseable probability
		"skew",           // duration kind without parameter
		"skew:zzz",       // unparseable duration
		"crash",          // crash without @time
		"stall:3",        // parameter on a parameterless kind
		"loss@40ms-20ms", // empty window
		"loss@-5ms-10ms", // negative start
		"loss@x-10ms",    // bad start
		"loss@10ms-x",    // bad end
		"loss,,dup",      // empty clause
		"loss:NaN",       // NaN probability
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) = nil error, want failure", spec)
		}
	}
	if s, err := ParseSpec("  "); err != nil || !s.Empty() {
		t.Errorf("blank spec: got (%v, %v), want empty schedule", s, err)
	}
}

func TestScheduleStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"",
		"loss:1@20ms-40ms",
		"loss:0.05,skew:200µs@10ms-",
		"crash@61ms,partition@80ms-95ms,chandelay:5ms@80ms-95ms",
		"corrupt:0.25,dup:0.1@1ms-2ms,reorder:0.5,stall@30ms-35ms",
		"skew:-200µs@5ms-",
	} {
		s1, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		s2, err := ParseSpec(s1.String())
		if err != nil {
			t.Fatalf("reparse of %q → %q: %v", spec, s1.String(), err)
		}
		if !reflect.DeepEqual(s1.Rules(), s2.Rules()) {
			t.Errorf("round trip %q → %q changed rules:\n%+v\n%+v", spec, s1.String(), s1.Rules(), s2.Rules())
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	sched, err := ParseSpec("loss:0.3,corrupt:0.2,dup:0.2,reorder:0.2,skew:100µs@5ms-")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) (out []string) {
		in := NewInjector(sched, seed, nil)
		for i := 0; i < 500; i++ {
			frame := []byte{byte(i), byte(i >> 8), 0xAA, 0xBB}
			in.Apply(ms(int64(i)), frame, func(at units.Time, fr []byte, cur bool) {
				out = append(out, at.String()+"/"+string(fr)+"/"+map[bool]string{true: "c", false: "x"}[cur])
			})
		}
		in.releaseHeld(func(at units.Time, fr []byte, cur bool) {
			out = append(out, "flush:"+string(fr))
		})
		return out
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault streams")
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault streams (suspicious for p≈0.3 faults over 500 frames)")
	}
}

func TestInjectorLossDropsEverything(t *testing.T) {
	sched, _ := ParseSpec("loss:1@10ms-20ms")
	in := NewInjector(sched, 1, nil)
	delivered := 0
	for i := int64(0); i < 30; i++ {
		in.Apply(ms(i), []byte{1}, func(units.Time, []byte, bool) { delivered++ })
	}
	if delivered != 20 { // 0–9ms and 20–29ms survive
		t.Fatalf("delivered %d frames, want 20", delivered)
	}
	if got := in.Metrics().Lost.Value(); got != 10 {
		t.Fatalf("lost counter = %d, want 10", got)
	}
}

func TestInjectorReorderSwapsAndRegresses(t *testing.T) {
	sched := NewSchedule(Rule{Kind: KindReorder, From: 0, To: Forever, Prob: 1})
	in := NewInjector(sched, 7, nil)
	type d struct {
		at  units.Time
		b   byte
		cur bool
	}
	var got []d
	feed := func(i int64) {
		in.Apply(ms(i), []byte{byte(i)}, func(at units.Time, fr []byte, cur bool) {
			got = append(got, d{at, fr[0], cur})
		})
	}
	feed(1) // held
	feed(2) // held frame 1 already in hold → frame 2 delivered, then 1 released
	if len(got) != 2 {
		t.Fatalf("got %d deliveries, want 2 (current then held)", len(got))
	}
	if got[0].b != 2 || !got[0].cur {
		t.Errorf("first delivery = %+v, want current frame 2", got[0])
	}
	if got[1].b != 1 || got[1].cur || got[1].at != ms(1) {
		t.Errorf("second delivery = %+v, want held frame 1 at its original 1ms", got[1])
	}
	if got[1].at.After(got[0].at) {
		t.Error("held frame should carry an earlier timestamp (regression)")
	}
	// Only frame 1 was held: the hold slot was occupied when 2 arrived.
	if n := in.Metrics().Reordered.Value(); n != 1 {
		t.Errorf("reordered counter = %d, want 1", n)
	}
}

// TestInjectorReorderReleasedInOrderIsNotCounted: a hold released by a
// lost successor or by Flush goes out in order, so it delivers the held
// frame but does not count as reordered.
func TestInjectorReorderReleasedInOrderIsNotCounted(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(in *Injector, deliver func(units.Time, []byte, bool))
	}{
		{"loss", func(in *Injector, deliver func(units.Time, []byte, bool)) {
			in.Apply(ms(2), []byte{2}, deliver) // lost: releases frame 1
		}},
		{"flush", func(in *Injector, deliver func(units.Time, []byte, bool)) {
			in.Flush(deliver)
		}},
	} {
		sched := NewSchedule(
			Rule{Kind: KindReorder, From: 0, To: ms(2), Prob: 1},
			Rule{Kind: KindLoss, From: ms(2), To: Forever, Prob: 1},
		)
		in := NewInjector(sched, 7, nil)
		var got []byte
		deliver := func(_ units.Time, fr []byte, _ bool) { got = append(got, fr[0]) }
		in.Apply(ms(1), []byte{1}, deliver) // held
		if len(got) != 0 {
			t.Fatalf("%s: frame 1 delivered before its release: %v", tc.name, got)
		}
		tc.release(in, deliver)
		if len(got) != 1 || got[0] != 1 {
			t.Errorf("%s: delivered %v, want the held frame 1", tc.name, got)
		}
		if n := in.Metrics().Reordered.Value(); n != 0 {
			t.Errorf("%s: reordered counter = %d, want 0", tc.name, n)
		}
	}
}

func TestInjectorDupDeliversCopy(t *testing.T) {
	sched := NewSchedule(Rule{Kind: KindDup, From: 0, To: Forever, Prob: 1})
	in := NewInjector(sched, 3, nil)
	buf := []byte{0x11, 0x22}
	var frames [][]byte
	var currents []bool
	in.Apply(ms(1), buf, func(_ units.Time, fr []byte, cur bool) {
		frames = append(frames, fr)
		currents = append(currents, cur)
	})
	if len(frames) != 2 {
		t.Fatalf("dup delivered %d frames, want 2", len(frames))
	}
	if !currents[0] || currents[1] {
		t.Fatalf("current flags = %v, want [true false]", currents)
	}
	buf[0] = 0xFF // caller reuses its buffer
	if frames[1][0] != 0x11 {
		t.Fatal("duplicate frame aliases the caller's buffer; must be a copy")
	}
}

func TestInjectorCorruptFlipsOneBit(t *testing.T) {
	sched := NewSchedule(Rule{Kind: KindCorrupt, From: 0, To: Forever, Prob: 1})
	in := NewInjector(sched, 9, nil)
	orig := []byte{0, 0, 0, 0}
	in.Apply(ms(1), orig, func(_ units.Time, fr []byte, _ bool) {
		diff := 0
		for i := range fr {
			for b := uint(0); b < 8; b++ {
				if (fr[i]^orig[i])>>b&1 == 1 {
					diff++
				}
			}
		}
		if diff != 1 {
			t.Fatalf("corrupt flipped %d bits, want exactly 1", diff)
		}
	})
	for i, v := range orig {
		if v != 0 {
			t.Fatalf("corrupt mutated the caller's buffer at byte %d", i)
		}
	}
	if got := in.Metrics().Corrupted.Value(); got != 1 {
		t.Fatalf("corrupted counter = %d, want 1", got)
	}
}

func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"loss:1@20ms-40ms,crash@61ms,partition@80ms-95ms",
		"skew:-200us@5ms-,chandelay:5ms",
		"corrupt:0.25,dup,reorder:0.5,stall@30ms-35ms",
		"loss", "crash@0s", "@", ":", "loss:", "loss@", "loss@1ms-",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		// Any accepted spec must round-trip through String.
		rendered := s.String()
		s2, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("ParseSpec(%q) ok but reparse of String() %q failed: %v", spec, rendered, err)
		}
		if !reflect.DeepEqual(s.Rules(), s2.Rules()) {
			t.Fatalf("round trip changed rules for %q → %q", spec, rendered)
		}
		// Query helpers must not panic anywhere in time.
		for _, at := range []units.Time{0, ms(1), ms(1000), Forever - 1} {
			for k := Kind(0); k < numKinds; k++ {
				_ = s.Prob(k, at)
			}
			_ = s.Skew(at)
			_ = s.ChannelDelay(at)
			_ = s.StallActive(at)
			_ = s.PartitionActive(at)
		}
		_ = s.CrashTimes()
		// An injector over any accepted schedule must terminate and never
		// deliver more than 2 frames per input (current + one of dup/held).
		in := NewInjector(s, 1, nil)
		for i := int64(0); i < 64; i++ {
			n := 0
			in.Apply(ms(i), []byte(strings.Repeat("x", int(i%7))), func(units.Time, []byte, bool) { n++ })
			if n > 3 {
				t.Fatalf("Apply delivered %d frames for one input", n)
			}
		}
	})
}
