// Command spine is the repository's benchmark: four workloads, each run
// in its own process, each checked against an oracle.
//
//	spine --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints every metric of the chosen mode by name with its unit, then one
// JSON object on the last line. --trace 0 measures the end-to-end
// metrics with tracing off; --trace 1 measures the per-layer metrics and
// writes bench/out/trace-<workload>.json. See bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	var cfg config
	var trace, runs int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "one of steady-1k, churn, loop, or the ungated steady-1m")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a span file")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload -runs times and report each end-to-end metric's spread against its bound")
	flag.IntVar(&runs, "runs", 2, "runs per workload under -selfcheck, each with its own seed")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.outDir = "bench/out"
	cfg.setups = 5
	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; a traced run sets up once
	}

	if selfcheck {
		os.Exit(selfCheck(cfg, runs))
	}
	began, steal0 := time.Now(), stealSeconds()
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spine:", err)
		os.Exit(2)
	}
	// What the hypervisor kept from this machine while the run lasted: a
	// run with a large share measured the neighbours.
	stolen, had := stealSeconds()-steal0, time.Since(began).Seconds()*float64(runtime.NumCPU())
	res.metrics["env.steal_ratio"] = stolen / had
	res.counts = append(res.counts, fmt.Sprintf("the hypervisor kept %.2f of this run's %.0f processor-seconds", stolen, had))
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	for _, c := range res.counts {
		fmt.Println("#", c)
	}
	if res.tracePath != "" {
		fmt.Println("# spans written to", res.tracePath)
	}
	out := report{Correct: res.wrong == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]measured{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-32s %14.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = measured{v, d.unit}
	}
	if r := res.metrics["steady.closure_ratio"] + res.metrics["loop.closure_ratio"]; cfg.trace && (r < 0.75 || r > 1.25) {
		fmt.Printf("# closure ratio %.2f is outside 0.75..1.25: the layer rows do not add up to the whole\n", r)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "spine: oracle:", n)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// report is the JSON object on the last line of standard output.
type report struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// selfCheck is the repeatability evidence: every workload runs `runs`
// times in its own process, seeds differing, and each end-to-end
// metric's spread is set against its bound from BENCHMARK.json (read
// from the working directory). Two runs report their relative
// difference; four or more report the interquartile range over the
// median, which is what the driver gates on.
func selfCheck(cfg config, runs int) int {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			fmt.Fprintln(os.Stderr, "spine: BENCHMARK.json:", err)
			return 2
		}
		for _, e := range bf.EndToEnd {
			bounds[e.Name] = e.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spine:", err)
		return 2
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	code := 0
	for _, w := range names {
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			args := []string{"--workload", w, "--seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0"}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var rep report
			if jerr := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || jerr != nil || !rep.Correct {
				fmt.Printf("%-10s run %d: failed (%v %v)\n", w, i, err, jerr)
				code = 1
				continue
			}
			for name, mv := range rep.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		for _, d := range endToEnd {
			vs := values[d.name]
			if len(vs) < 2 {
				continue
			}
			sort.Float64s(vs)
			kind, spread := "rel.diff", (vs[len(vs)-1]-vs[0])/vs[0]
			if len(vs) >= 4 {
				q := quartiles(vs)
				kind, spread = "iqr/median", (q[2]-q[0])/q[1]
			}
			verdict := ""
			if b, ok := bounds[d.name]; ok {
				verdict = fmt.Sprintf("bound %.2f  ok", b)
				if spread > b && d.name != "setup_s" {
					verdict = fmt.Sprintf("bound %.2f  EXCEEDED", b)
					code = 1
				} else if spread > b/3 {
					verdict = fmt.Sprintf("bound %.2f  above a third of it", b)
				}
			}
			fmt.Printf("%-10s %-16s median %12.4f %-5s %s %.4f  %s  %.4g\n", w, d.name, quantile(vs, 0.5), d.unit, kind, spread, verdict, vs)
		}
	}
	return code
}

// quartiles cuts ascending data as Python's statistics.quantiles(data,
// n=4) does (the exclusive method), which is how the driver computes
// spreads.
func quartiles(data []float64) [3]float64 {
	var q [3]float64
	n, m := 4, len(data)+1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(data)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (data[j-1]*(float64(n)-delta) + data[j]*delta) / float64(n)
	}
	return q
}
