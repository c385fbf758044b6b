package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestNamesMatchBenchmarkJSON keeps the harness and BENCHMARK.json in
// step: every workload and metric the harness prints is declared there
// under the same name and unit, and nothing else is.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, declared map[string]string, printed []metricDef) {
		for _, d := range printed {
			if !valid.MatchString(d.name) {
				t.Errorf("%s name %q has a character outside letters, digits, _ . -", kind, d.name)
			}
			unit, ok := declared[d.name]
			if !ok {
				t.Errorf("harness prints %s %q; BENCHMARK.json does not declare it", kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s %q: harness unit %q, BENCHMARK.json unit %q", kind, d.name, d.unit, unit)
			}
			delete(declared, d.name)
		}
		for name := range declared {
			t.Errorf("BENCHMARK.json declares %s %q; the harness does not print it", kind, name)
		}
	}

	declared := map[string]string{}
	for _, w := range bf.Workloads {
		declared[w.Name] = ""
	}
	var printed []metricDef
	for _, n := range workloadNames {
		printed = append(printed, metricDef{name: n})
	}
	compare("workload", declared, printed)

	declared = map[string]string{}
	sawSetup := false
	for _, e := range bf.EndToEnd {
		declared[e.Name] = e.Unit
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		sawSetup = sawSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !sawSetup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
	compare("end-to-end metric", declared, endToEnd)

	declared = map[string]string{}
	for _, p := range bf.PerLayer {
		declared[p.Name] = p.Unit
	}
	compare("per-layer metric", declared, perLayer)
}

// TestSmoke runs every workload briefly, untraced and traced, on
// -short-sized tables, with its oracle, so the benchmark cannot rot.
func TestSmoke(t *testing.T) {
	small := map[string]int{"steady-1m": 20_000, "churn": 18_000}
	for _, name := range append(append([]string(nil), workloadNames...), ungatedWorkloads...) {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.6, trace: trace, flows: small[name], setups: 1, outDir: t.TempDir()}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if raceEnabled && name == "loop" {
				continue
			}
			if res.wrong != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: %d attempted, %d oracle violations: %v", name, trace, res.attempted, res.wrong, res.notes)
			}
			if trace {
				if _, err := os.Stat(res.tracePath); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
				if res.metrics["trace.overhead_ratio"] <= 0 {
					t.Errorf("%s: trace.overhead_ratio = %v", name, res.metrics["trace.overhead_ratio"])
				}
				continue
			}
			for _, d := range endToEnd {
				if res.metrics[d.name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.metrics[d.name])
				}
			}
		}
	}
}
