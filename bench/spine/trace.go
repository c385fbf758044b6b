package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded from the harness's own files, around calls into
// each layer: name, start, end, the span that caused it, and the
// episode it belongs to. They stay in memory during the run and are
// written out once at exit. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site.

type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`  // index into the span list, -1 for a root
	Episode int    `json:"episode"` // -1 outside the loop workload's episodes
}

const maxSpans = 200_000

type tracer struct {
	t0      time.Time
	spans   []span
	dropped int64
}

// newTracer starts a span record whose times count from t0.
func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span and returns its index, for use as a parent and
// for end; -1 when nothing was recorded.
func (t *tracer) begin(name string, parent int, start time.Time) int {
	return t.add(name, parent, -1, start, time.Time{})
}

func (t *tracer) end(i int, end time.Time) {
	if t != nil && i >= 0 {
		t.spans[i].EndNs = end.Sub(t.t0).Nanoseconds()
	}
}

func (t *tracer) span(name string, parent int, start, end time.Time) {
	t.add(name, parent, -1, start, end)
}

func (t *tracer) add(name string, parent, episode int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	s := span{Name: name, StartNs: start.Sub(t.t0).Nanoseconds(), Parent: parent, Episode: episode}
	if !end.IsZero() {
		s.EndNs = end.Sub(t.t0).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// write stores the spans as bench/out/trace-<workload>.json under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
