package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := newCounter(r, "planck_test_samples_total", Label("switch", "sw0"))
	c.Add(41)
	c.Inc()
	g := newGauge(r, "planck_test_flow_table_size")
	g.Set(7)
	r.GaugeFunc("planck_test_pending", func() float64 { return 3.5 })
	h := newHistogram(r, "planck_test_latency_us", 1e-3, Label("switch", "sw0"))
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i) * 1000)
	}

	var prom bytes.Buffer
	r.WritePrometheus(&prom)
	text := prom.String()
	for _, want := range []string{
		`planck_test_samples_total{switch="sw0"} 42`,
		"# TYPE planck_test_samples_total counter",
		"planck_test_flow_table_size 7",
		"planck_test_pending 3.5",
		"# TYPE planck_test_latency_us summary",
		`planck_test_latency_us{switch="sw0",quantile="0.5"}`,
		`planck_test_latency_us_count{switch="sw0"} 1000`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}

	var js bytes.Buffer
	r.WriteJSON(&js)
	var decoded map[string]any
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v\n%s", err, js.String())
	}
	if v, ok := decoded[`planck_test_samples_total{switch="sw0"}`].(float64); !ok || v != 42 {
		t.Fatalf("JSON counter = %v", decoded[`planck_test_samples_total{switch="sw0"}`])
	}
	hist, ok := decoded[`planck_test_latency_us{switch="sw0"}`].(map[string]any)
	if !ok || hist["count"].(float64) != 1000 {
		t.Fatalf("JSON histogram = %v", hist)
	}

	line := r.StatsLine()
	if !strings.Contains(line, "planck_test_samples_total") || !strings.HasPrefix(line, "obs ") {
		t.Fatalf("stats line %q", line)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	newCounter(r, "x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	newCounter(r, "x_total")
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	newCounter(r, "planck_test_served_total").Add(5)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "planck_test_served_total 5") {
		t.Fatalf("/metrics body:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, `"planck_test_served_total": 5`) {
		t.Fatalf("/debug/vars body:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/ body:\n%s", body)
	}
}

// TestConcurrentObserve exercises the atomic paths under the race
// detector: writers hammer a counter and histogram while a reader
// snapshots.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := newCounter(r, "planck_test_conc_total")
	h := newHistogram(r, "planck_test_conc_ns", 1)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(seed*1000 + int64(i))
			}
		}(int64(w + 1))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
			var sink bytes.Buffer
			r.WritePrometheus(&sink)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*per {
		t.Fatalf("counter %d, want %d", c.Value(), workers*per)
	}
	if h.N() != workers*per {
		t.Fatalf("histogram N %d, want %d", h.N(), workers*per)
	}
}

func TestLogPeriodically(t *testing.T) {
	r := NewRegistry()
	newCounter(r, "planck_test_log_total").Inc()
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := r.LogPeriodically(w, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := buf.Len()
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(buf.String(), "planck_test_log_total=1") {
		t.Fatalf("log output %q", buf.String())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// newCounter, newGauge and newHistogram register a fresh instrument of
// their kind in r under name and labels.
func newCounter(r *Registry, name string, labels ...string) *Counter {
	c := &Counter{}
	r.MustRegister(name, c, labels...)
	return c
}

func newGauge(r *Registry, name string, labels ...string) *Gauge {
	g := &Gauge{}
	r.MustRegister(name, g, labels...)
	return g
}

func newHistogram(r *Registry, name string, scale float64, labels ...string) *Histogram {
	h := NewScaledHistogram(scale)
	r.MustRegister(name, h, labels...)
	return h
}
