package stats

import "planck/internal/units"

// timedPoint is one (timestamp, value) observation in a rolling window.
type timedPoint struct {
	at  units.Time
	val float64
}

// RollingWindow maintains a sliding time window of (timestamp, value)
// observations and answers sum/rate queries over the window. It is the
// primitive behind the "200 µs rolling average" estimator the paper uses
// as a strawman in Figure 10(a).
type RollingWindow struct {
	span units.Duration
	pts  []timedPoint // FIFO; pts[0] is oldest
	head int          // index of oldest live point
	sum  float64
}

// NewRollingWindow returns a window covering the trailing span.
func NewRollingWindow(span units.Duration) *RollingWindow {
	return &RollingWindow{span: span}
}

// Add records an observation at time t. Timestamps must be non-decreasing.
func (w *RollingWindow) Add(t units.Time, v float64) {
	w.expire(t)
	w.pts = append(w.pts, timedPoint{at: t, val: v})
	w.sum += v
}

// expire drops points older than t-span and compacts storage lazily.
func (w *RollingWindow) expire(t units.Time) {
	cutoff := t.Add(-w.span)
	for w.head < len(w.pts) && w.pts[w.head].at.Before(cutoff) {
		w.sum -= w.pts[w.head].val
		w.head++
	}
	if w.head > 0 && w.head*2 >= len(w.pts) {
		n := copy(w.pts, w.pts[w.head:])
		w.pts = w.pts[:n]
		w.head = 0
	}
}

// Rate treats the values as byte counts and returns the average data rate
// over the window ending at t.
func (w *RollingWindow) Rate(t units.Time) units.Rate {
	w.expire(t)
	if w.span <= 0 {
		return 0
	}
	return units.Rate(w.sum * 8 / w.span.Seconds())
}
