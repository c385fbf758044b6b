package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"

	"planck/internal/units"
)

// Recorder is the flight-recorder ring: a fixed-size, lock-free buffer
// of the most recently completed spans. Writers publish finished span
// copies with an atomic cursor; readers snapshot by loading slot
// pointers, so scrapes never block the event path.
type Recorder struct {
	slots  []atomic.Pointer[Span]
	cursor atomic.Uint64
}

// NewRecorder builds a ring retaining size spans (rounded up to a
// power of two; 0 = 256).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = 256
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Recorder{slots: make([]atomic.Pointer[Span], n)}
}

// put publishes one completed span (the caller passes an exclusively
// owned copy).
func (r *Recorder) put(s *Span) {
	idx := (r.cursor.Add(1) - 1) & uint64(len(r.slots)-1)
	r.slots[idx].Store(s)
}

// Snapshot returns the retained spans, oldest first.
func (r *Recorder) Snapshot() []Span {
	out := make([]Span, 0, len(r.slots))
	cur := r.cursor.Load()
	for i := 0; i < len(r.slots); i++ {
		idx := (cur + uint64(i)) & uint64(len(r.slots)-1)
		if s := r.slots[idx].Load(); s != nil {
			out = append(out, *s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// spanJSON is the wire form of one span.
type spanJSON struct {
	ID       uint64 `json:"id"`
	Switch   string `json:"switch"`
	Port     int    `json:"port"`
	Outcome  string `json:"outcome"`
	ViaARP   bool   `json:"via_arp"`
	EpochOld uint64 `json:"epoch_old"`
	EpochNew uint64 `json:"epoch_new"`
	SrcHost  int    `json:"src_host"`
	DstHost  int    `json:"dst_host"`
	Tree     int    `json:"tree"`
	Retries  int    `json:"retries"`
	Acts     int    `json:"actuations"`

	SampleAtNs    int64 `json:"sample_at_ns"`
	DetectAtNs    int64 `json:"detect_at_ns"`
	QueuedAtNs    int64 `json:"queued_at_ns"`
	DeliveredAtNs int64 `json:"delivered_at_ns"`
	DecidedAtNs   int64 `json:"decided_at_ns"`
	ActuatedAtNs  int64 `json:"actuated_at_ns"`
	ConvergedAtNs int64 `json:"converged_at_ns"`

	StagesUs map[string]float64 `json:"stages_us"`
	TotalUs  float64            `json:"total_us"`
}

func toJSON(s *Span) spanJSON {
	bd := s.Breakdown()
	stages := make(map[string]float64, NumStages)
	for i, d := range bd {
		stages[StageNames[i]] = d.Microseconds()
	}
	return spanJSON{
		ID: s.ID, Switch: s.Switch, Port: s.Port,
		Outcome: s.Outcome.String(), ViaARP: s.ViaARP,
		EpochOld: s.EpochOld, EpochNew: s.EpochNew,
		SrcHost: s.SrcHost, DstHost: s.DstHost, Tree: s.Tree,
		Retries: s.Retries, Acts: s.Actuations,
		SampleAtNs:    int64(s.SampleAt),
		DetectAtNs:    int64(s.DetectAt),
		QueuedAtNs:    int64(s.QueuedAt),
		DeliveredAtNs: int64(s.DeliveredAt),
		DecidedAtNs:   int64(s.DecidedAt),
		ActuatedAtNs:  int64(s.ActuatedAt),
		ConvergedAtNs: int64(s.ConvergedAt),
		StagesUs:      stages,
		TotalUs:       s.Total().Microseconds(),
	}
}

// WriteJSON dumps the flight recorder's retained spans as a JSON array,
// oldest first.
func (r *Recorder) WriteJSON(w io.Writer) error {
	spans := r.Snapshot()
	out := make([]spanJSON, len(spans))
	for i := range spans {
		out[i] = toJSON(&spans[i])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// TracesHandler serves the flight recorder as JSON (/debug/traces).
func (tr *Tracer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		tr.rec.WriteJSON(w)
	})
}

// stageSummary is one stage's percentile summary.
type stageSummary struct {
	Count int64   `json:"count"`
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

func summarize(h interface {
	N() int
	Quantile(float64) float64
	Max() float64
}) stageSummary {
	s := stageSummary{Count: int64(h.N())}
	if s.Count > 0 {
		s.P50Us = h.Quantile(0.5)
		s.P99Us = h.Quantile(0.99)
		s.MaxUs = h.Max()
	}
	return s
}

// SummaryHandler serves per-stage p50/p99 over converged spans plus
// outcome counts (/debug/traces/summary).
func (tr *Tracer) SummaryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		type summary struct {
			Active    int                     `json:"active"`
			Completed int64                   `json:"completed"`
			Converged int64                   `json:"converged"`
			Outcomes  map[string]int          `json:"outcomes"`
			Stages    map[string]stageSummary `json:"stages_us"`
			Total     stageSummary            `json:"total_us"`
		}
		out := summary{
			Active:    tr.ActiveCount(),
			Completed: tr.Completed.Value(),
			Converged: tr.Converged.Value(),
			Outcomes:  make(map[string]int),
			Stages:    make(map[string]stageSummary, NumStages),
		}
		for o, n := range tr.OutcomeCounts() {
			if n > 0 {
				out.Outcomes[Outcome(o).String()] = int(n)
			}
		}
		for i, h := range tr.stageHist {
			out.Stages[StageNames[i]] = summarize(h)
		}
		out.Total = summarize(tr.totalHist)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
}

// Dump writes a flight-recorder dump with a reason header — the
// supervisor calls this on dark-feed and crash transitions so the trace
// history around a monitoring-plane failure is preserved.
func (tr *Tracer) Dump(w io.Writer, reason string) {
	fmt.Fprintf(w, "=== trace flight recorder dump: %s ===\n", reason)
	tr.rec.WriteJSON(w)
}

// WriteBreakdown renders the paper-style (Fig. 10) latency-breakdown
// table over the retained converged spans, followed by outcome counts
// and, when at least one complete trace exists, an example trace whose
// stage sum is checked against its wall time. Outcome totals come from
// the tracer's counters and converged spans from their dedicated ring,
// so neither is lost when a steady no-reroute stream wraps the main
// flight recorder.
func (tr *Tracer) WriteBreakdown(w io.Writer) {
	conv := tr.ConvergedSpans()
	counts := tr.OutcomeCounts()
	fmt.Fprintf(w, "control-loop traces: %d completed, %d converged, %d still open\n",
		tr.Completed.Value(), tr.Converged.Value(), tr.ActiveCount())
	for o := Outcome(1); o < outcomeCount; o++ {
		if n := counts[o]; n > 0 {
			fmt.Fprintf(w, "  %-18s %d\n", o.String(), n)
		}
	}
	if len(conv) == 0 {
		return
	}
	if int(tr.Converged.Value()) > len(conv) {
		fmt.Fprintf(w, "  (percentiles over the %d most recent converged traces)\n", len(conv))
	}

	// Per-stage percentiles over converged spans, computed exactly.
	vals := make([][]float64, NumStages+1)
	for _, s := range conv {
		bd := s.Breakdown()
		for i, d := range bd {
			vals[i] = append(vals[i], d.Microseconds())
		}
		vals[NumStages] = append(vals[NumStages], s.Total().Microseconds())
	}
	q := func(sorted []float64, p float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	fmt.Fprintf(w, "\n%-12s  %10s  %10s  %10s\n", "stage", "p50 (µs)", "p99 (µs)", "max (µs)")
	names := append(StageNames[:], "total")
	for i, name := range names {
		sort.Float64s(vals[i])
		fmt.Fprintf(w, "%-12s  %10.1f  %10.1f  %10.1f\n",
			name, q(vals[i], 0.5), q(vals[i], 0.99), vals[i][len(vals[i])-1])
	}

	ex := conv[0]
	bd := ex.Breakdown()
	var sum units.Duration
	for _, d := range bd {
		sum += d
	}
	mech := "OpenFlow"
	if ex.ViaARP {
		mech = "ARP"
	}
	fmt.Fprintf(w, "\nexample trace #%d: %s port %d, epoch %d→%d, %s move h%d→h%d onto tree %d, %d retries\n",
		ex.ID, ex.Switch, ex.Port, ex.EpochOld, ex.EpochNew, mech,
		ex.SrcHost, ex.DstHost, ex.Tree, ex.Retries)
	for i, d := range bd {
		fmt.Fprintf(w, "  %-12s %10.1f µs\n", StageNames[i], d.Microseconds())
	}
	fmt.Fprintf(w, "  %-12s %10.1f µs (stage sum %.1f µs)\n",
		"total", ex.Total().Microseconds(), sum.Microseconds())
}
