// Package stats provides the small statistical toolkit the experiment
// harnesses need: percentiles, rolling time windows and error metrics. Everything is
// deterministic and allocation-conscious; no third-party dependencies.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers order-statistic and
// moment queries. The zero value is ready to use.
type Sample struct {
	vals   []float64
	sorted bool
	sum    float64
}

// NewSample returns a Sample with capacity preallocated for n observations.
func NewSample(n int) *Sample { return &Sample{vals: make([]float64, 0, n)} }

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Variance returns the population variance, or 0 for fewer than 2 points.
func (s *Sample) Variance() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.vals {
		d := v - m
		acc += d * d
	}
	return acc / float64(n)
}

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Variance()) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics. Empty samples return 0.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.vals[lo]
	}
	frac := pos - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

// Values returns the observations in sorted order. The returned slice is
// owned by the Sample; callers must not modify it.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	return s.vals
}

// FractionAtOrBelow returns the fraction of observations <= x.
func (s *Sample) FractionAtOrBelow(x float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.vals, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.vals))
}

// MeanRelativeError returns mean(|est-true|/true) over paired slices,
// skipping pairs whose true value is zero. Mismatched lengths are an error.
func MeanRelativeError(est, truth []float64) (float64, error) {
	if len(est) != len(truth) {
		return 0, fmt.Errorf("stats: mismatched lengths %d vs %d", len(est), len(truth))
	}
	var acc float64
	var n int
	for i := range est {
		if truth[i] == 0 {
			continue
		}
		acc += math.Abs(est[i]-truth[i]) / math.Abs(truth[i])
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return acc / float64(n), nil
}

// Counter is a monotonically increasing event counter with byte accounting.
type Counter struct {
	Packets int64
	Bytes   int64
}

// Add records one event of n bytes.
func (c *Counter) Add(n int) {
	c.Packets++
	c.Bytes += int64(n)
}
