// Package obs is the system's self-monitoring layer: a dependency-free,
// allocation-conscious metrics toolkit. Planck's thesis is that you
// cannot manage what you cannot measure at millisecond granularity
// (§2, §5.2); obs applies the same discipline to the reproduction's own
// pipeline, so that the cost and health of monitoring are themselves
// monitored (CeMon's overhead-accounting argument).
//
// Three instrument kinds cover the pipeline:
//
//   - Counter: a monotonic atomic int64 (samples ingested, decode
//     errors, reroutes). Increment cost is a single atomic add.
//   - Gauge / GaugeFunc: a point-in-time level (flow-table size, event
//     heap depth). GaugeFunc lets a caller expose an existing field
//     without double bookkeeping; such reads are best-effort when the
//     owner mutates them from another goroutine.
//   - Histogram: a log-linear-bucket distribution (per-stage pipeline
//     timings, sample latencies) answering p50/p99/p999 snapshots with
//     bounded (<2%) relative error and no per-observation allocation.
//
// A Registry names instruments and exposes them three ways: Prometheus
// text (WritePrometheus), an expvar-style JSON snapshot (WriteJSON),
// and a compact single stats line for headless stderr logging
// (StatsLine). Serve mounts all of them plus net/http/pprof on one
// listener.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// processStart anchors the monotonic clock used for stage timings.
var processStart = time.Now()

// Nanos returns monotonic wall-clock nanoseconds since process start.
// It is the timestamp source for pipeline stage timings: cheap (vDSO
// path), monotonic, and never used for control decisions — only for
// telemetry — so the simulation stays deterministic.
func Nanos() int64 { return int64(time.Since(processStart)) }

// Label renders one k="v" metric label pair.
func Label(k, v string) string { return k + `="` + v + `"` }

// entry is one registered instrument.
type entry struct {
	name   string // base metric name, e.g. planck_collector_samples_total
	labels string // pre-rendered label list, e.g. switch="sw0" (may be empty)
	metric any    // *Counter | *Gauge | GaugeFunc | *Histogram
}

// fullName is the exposition key: name{labels} or bare name.
func (e *entry) fullName() string {
	if e.labels == "" {
		return e.name
	}
	return e.name + "{" + e.labels + "}"
}

// Registry is a named set of instruments. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use; instrument
// reads taken while writers are active are individually atomic.
type Registry struct {
	mu      sync.RWMutex
	entries []*entry
	byName  map[string]*entry

	// extras are additional HTTP handlers mounted by Handler(), keyed
	// by mux pattern — the seam packages layered on obs (e.g.
	// obs/trace's /debug/traces endpoints) use to join the registry's
	// introspection mux without an import cycle.
	extras map[string]http.Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// MustRegister adds a pre-built instrument under name (with optional
// labels built by Label). It panics on a duplicate full name — metric
// names are API, and a silent collision would merge unrelated series.
func (r *Registry) MustRegister(name string, metric any, labels ...string) {
	switch metric.(type) {
	case *Counter, *Gauge, GaugeFunc, *Histogram:
	default:
		panic(fmt.Sprintf("obs: unsupported metric type %T for %q", metric, name))
	}
	e := &entry{name: name, labels: strings.Join(labels, ","), metric: metric}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.fullName()]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", e.fullName()))
	}
	r.byName[e.fullName()] = e
	r.entries = append(r.entries, e)
}

// GaugeFunc registers fn as a callback gauge. fn must be safe to call
// from the exposition goroutine; values it reads non-atomically are
// best-effort.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	r.MustRegister(name, GaugeFunc(fn), labels...)
}

// snapshotEntries returns the entries sorted by full name.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.RLock()
	out := make([]*entry, len(r.entries))
	copy(out, r.entries)
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].fullName() < out[j].fullName() })
	return out
}

// Point is one metric in a Snapshot.
type Point struct {
	Name  string        // full exposition name, labels included
	Kind  string        // "counter" | "gauge" | "histogram"
	Value float64       // counter/gauge value; histogram count
	Hist  *HistSnapshot // non-nil for histograms
}

// Snapshot returns every instrument's current reading, sorted by name.
// It is cheap: one atomic load per counter/gauge, one bucket walk per
// histogram.
func (r *Registry) Snapshot() []Point {
	entries := r.snapshotEntries()
	out := make([]Point, 0, len(entries))
	for _, e := range entries {
		p := Point{Name: e.fullName()}
		switch m := e.metric.(type) {
		case *Counter:
			p.Kind = "counter"
			p.Value = float64(m.Value())
		case *Gauge:
			p.Kind = "gauge"
			p.Value = float64(m.Value())
		case GaugeFunc:
			p.Kind = "gauge"
			p.Value = m()
		case *Histogram:
			p.Kind = "histogram"
			s := m.Snapshot()
			p.Value = float64(s.Count)
			p.Hist = &s
		}
		out = append(out, p)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text format:
// counters and gauges as single samples, histograms as summaries with
// p50/p90/p99/p999 quantile series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	typeSeen := make(map[string]bool)
	emitType := func(name, kind string) {
		if !typeSeen[name] {
			typeSeen[name] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		}
	}
	for _, e := range r.snapshotEntries() {
		switch m := e.metric.(type) {
		case *Counter:
			emitType(e.name, "counter")
			fmt.Fprintf(w, "%s %d\n", e.fullName(), m.Value())
		case *Gauge:
			emitType(e.name, "gauge")
			fmt.Fprintf(w, "%s %d\n", e.fullName(), m.Value())
		case GaugeFunc:
			emitType(e.name, "gauge")
			fmt.Fprintf(w, "%s %g\n", e.fullName(), m())
		case *Histogram:
			emitType(e.name, "summary")
			s := m.Snapshot()
			for _, q := range [...]struct {
				q string
				v float64
			}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}, {"0.999", s.P999}} {
				fmt.Fprintf(w, "%s{%s} %g\n", e.name, joinLabels(e.labels, `quantile="`+q.q+`"`), q.v)
			}
			fmt.Fprintf(w, "%s_sum%s %g\n", e.name, braced(e.labels), s.Sum)
			fmt.Fprintf(w, "%s_count%s %d\n", e.name, braced(e.labels), s.Count)
		}
	}
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// WriteJSON renders an expvar-style snapshot: a JSON object keyed by
// full metric name, with histograms expanded to their summary fields.
// Keys are emitted in sorted order.
func (r *Registry) WriteJSON(w io.Writer) {
	pts := r.Snapshot()
	io.WriteString(w, "{")
	for i, p := range pts {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, "\n  %q: ", p.Name)
		if p.Hist != nil {
			s := p.Hist
			fmt.Fprintf(w,
				`{"count": %d, "sum": %g, "min": %g, "max": %g, "mean": %g, "p50": %g, "p90": %g, "p99": %g, "p999": %g}`,
				s.Count, s.Sum, s.Min, s.Max, s.Mean, s.P50, s.P90, s.P99, s.P999)
		} else {
			fmt.Fprintf(w, "%g", p.Value)
		}
	}
	io.WriteString(w, "\n}\n")
}

// StatsLine renders a compact one-line snapshot for headless stderr
// logging: counters and gauges as name=value, histograms as
// name=p50/p99(count).
func (r *Registry) StatsLine() string {
	var b strings.Builder
	b.WriteString("obs")
	for _, p := range r.Snapshot() {
		b.WriteByte(' ')
		b.WriteString(p.Name)
		b.WriteByte('=')
		if p.Hist != nil {
			fmt.Fprintf(&b, "%.4g/%.4g(%d)", p.Hist.P50, p.Hist.P99, p.Hist.Count)
		} else {
			fmt.Fprintf(&b, "%g", p.Value)
		}
	}
	return b.String()
}

// LogPeriodically writes StatsLine to w every interval until the
// returned stop function is called. Intended for headless runs where no
// scraper is attached.
func (r *Registry) LogPeriodically(w io.Writer, every time.Duration) (stop func()) {
	t := time.NewTicker(every)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(w, r.StatsLine())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			t.Stop()
			close(done)
		})
	}
}
