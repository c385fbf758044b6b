package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"planck/internal/units"
)

func TestSampleMoments(t *testing.T) {
	s := NewSample(4)
	addAll(s, 2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := s.Stddev(); got != 2 {
		t.Fatalf("Stddev = %v", got)
	}
	if s.N() != 8 || s.sum != 40 {
		t.Fatalf("N=%d sum=%v", s.N(), s.sum)
	}
}

// addAll records each of vs in s.
func addAll(s *Sample, vs ...float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

func TestQuantiles(t *testing.T) {
	s := &Sample{}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Median = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("Q1 = %v", got)
	}
	if got := s.Quantile(0.99); math.Abs(got-99.01) > 1e-9 {
		t.Fatalf("Q99 = %v", got)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestEmptySampleIsSafe(t *testing.T) {
	s := &Sample{}
	if s.Mean() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 || s.Stddev() != 0 {
		t.Fatal("empty sample should answer zeros")
	}
	if got := s.FractionAtOrBelow(10); got != 0 {
		t.Fatalf("FractionAtOrBelow on empty = %v", got)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		s := &Sample{}
		addAll(s, vals...)
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionAtOrBelow(t *testing.T) {
	s := &Sample{}
	addAll(s, 1, 2, 2, 3)
	cases := []struct {
		x    float64
		want float64
	}{{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {99, 1}}
	for _, c := range cases {
		if got := s.FractionAtOrBelow(c.x); got != c.want {
			t.Errorf("FractionAtOrBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestMeanRelativeError(t *testing.T) {
	got, err := MeanRelativeError([]float64{11, 9, 5}, []float64{10, 10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MRE = %v", got)
	}
	if _, err := MeanRelativeError([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestRollingWindowRate(t *testing.T) {
	w := NewRollingWindow(200 * units.Microsecond)
	// 10 packets of 1250 bytes over 100µs = 1 Gbps over the 200µs window
	// once they are all inside... rate = 12500B*8 / 200µs = 500 Mbps.
	for i := 0; i < 10; i++ {
		w.Add(units.Time(i*10)*units.Time(units.Microsecond), 1250)
	}
	at := units.Time(90 * units.Microsecond)
	if got := w.Rate(at); got != 500*units.Mbps {
		t.Fatalf("Rate = %v", got)
	}
	// 300µs later everything expired.
	w.expire(at.Add(300 * units.Microsecond))
	if w.sum != 0 {
		t.Fatalf("sum after expiry = %v", w.sum)
	}
	if n := len(w.pts) - w.head; n != 0 {
		t.Fatalf("%d points live after expiry", n)
	}
}

func TestRollingWindowExpiry(t *testing.T) {
	w := NewRollingWindow(units.Duration(100))
	rng := rand.New(rand.NewSource(1))
	var tm units.Time
	naive := []timedPoint{}
	for i := 0; i < 10000; i++ {
		tm = tm.Add(units.Duration(rng.Int63n(30)))
		v := float64(rng.Intn(100))
		w.Add(tm, v)
		naive = append(naive, timedPoint{at: tm, val: v})
		// Naive reference sum.
		var want float64
		cut := tm.Add(-100)
		for _, p := range naive {
			if !p.at.Before(cut) {
				want += p.val
			}
		}
		if w.expire(tm); math.Abs(w.sum-want) > 1e-6 {
			t.Fatalf("step %d: sum=%v want %v", i, w.sum, want)
		}
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(100)
	c.Add(200)
	c.Add(50)
	if c.Packets != 3 || c.Bytes != 350 {
		t.Fatalf("counter = %+v", c)
	}
}

func TestValuesSorted(t *testing.T) {
	s := &Sample{}
	addAll(s, 3, 1, 2)
	vals := s.Values()
	if !sort.Float64sAreSorted(vals) {
		t.Fatal("Values not sorted")
	}
}
