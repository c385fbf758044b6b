// Command planck-sim runs a single workload scenario on the simulated
// testbed and prints per-flow statistics.
//
// Usage:
//
//	planck-sim -workload stride -scheme planckte -size 100MiB -seed 7
//	planck-sim -workload shuffle -metrics :9090 -stats-every 2s
//	planck-sim -workload stride -fault "loss:0.5@1s-2s,crash@3s" -fault-seed 9
//
// With -metrics, the testbed's registry — engine vitals, controller
// actuation delays, per-collector pipeline timings, and per-switch
// sample-latency histograms — is served over HTTP (/metrics,
// /debug/vars, /debug/pprof) while the simulation runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"planck/internal/experiments"
	"planck/internal/faults"
	"planck/internal/lab"
	"planck/internal/obs"
	"planck/internal/obs/trace"
	"planck/internal/units"
)

func main() {
	wl := flag.String("workload", "stride", "stride | shuffle | bijection | random | staggered")
	scheme := flag.String("scheme", "planckte", "static | poll1s | poll01s | planckte | optimal")
	sizeStr := flag.String("size", "100MiB", "per-flow transfer size")
	seed := flag.Int64("seed", 1, "deterministic seed")
	timeoutS := flag.Int("timeout-s", 120, "virtual-time timeout in seconds")
	metricsAddr := flag.String("metrics", "", "HTTP address serving /metrics, /debug/vars, /debug/pprof (empty = off)")
	statsEvery := flag.Duration("stats-every", 0, "period between one-line stats reports on stderr (0 = off)")
	faultSpec := flag.String("fault", "", `fault-injection spec for every monitored collector feed, e.g. "loss:0.5@1s-2s,crash@3s" (empty = off)`)
	faultSeed := flag.Int64("fault-seed", 0, "seed for the fault injectors (0 = derive from -seed)")
	traceFlag := flag.Bool("trace", false, "record control-loop spans and print the per-stage latency breakdown (Fig. 10)")
	traceMin := flag.Int("trace-min", 0, "exit nonzero unless at least this many traces converged (implies -trace)")
	governFlag := flag.Bool("govern", false, "run a sampling-rate governor per monitored switch and print its episode summary")
	governMin := flag.Int("govern-min", 0, "exit nonzero unless governors committed at least this many shed/tune episodes and closed as many loops (implies -govern)")
	flag.Parse()
	if *traceMin > 0 {
		*traceFlag = true
	}
	if *governMin > 0 {
		*governFlag = true
	}

	kinds := map[string]experiments.WorkloadKind{
		"stride":    experiments.WorkloadStride,
		"shuffle":   experiments.WorkloadShuffle,
		"bijection": experiments.WorkloadRandomBijection,
		"random":    experiments.WorkloadRandom,
		"staggered": experiments.WorkloadStaggeredProb,
	}
	schemes := map[string]experiments.Scheme{
		"static":   experiments.SchemeStatic,
		"poll1s":   experiments.SchemePoll1s,
		"poll01s":  experiments.SchemePoll01s,
		"planckte": experiments.SchemePlanckTE,
		"optimal":  experiments.SchemeOptimal,
	}
	kind, ok := kinds[strings.ToLower(*wl)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}
	sch, ok := schemes[strings.ToLower(*scheme)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *scheme)
		os.Exit(2)
	}
	size, err := parseSize(*sizeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// A crash, partition or chandelay rule acts only through a
	// supervisor, so a schedule with one runs supervised.
	var sched *faults.Schedule
	supervised := false
	if *faultSpec != "" {
		sched, err = faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		supervised = lab.NeedsSupervisor(sched)
	}

	var tracer *trace.Tracer
	if *traceFlag {
		tracer = trace.New(256)
	}
	l, cleanup, err := experiments.SchemeLabWith(sch, *seed, func(opts *lab.Options) {
		opts.Tracer = tracer
		if tracer != nil {
			opts.TraceDump = os.Stderr
		}
		opts.Govern = *governFlag
		opts.Supervise = supervised
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cleanup()
	if sched != nil {
		fs := *faultSeed
		if fs == 0 {
			fs = *seed
		}
		if err := l.ApplyFaults(sched, fs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		note := ""
		if supervised {
			note = " (supervised)"
		}
		fmt.Fprintf(os.Stderr, "fault injection active: %s (seed %d)%s\n", sched, fs, note)
	}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, l.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (also /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	if *statsEvery > 0 {
		stop := l.Metrics.LogPeriodically(os.Stderr, *statsEvery)
		defer stop()
	}

	res := experiments.RunWorkloadOn(l, kind, size, *seed,
		units.Duration(*timeoutS)*units.Duration(units.Second))

	fmt.Printf("workload=%s scheme=%s size=%s seed=%d\n", kind, sch, units.BytesString(size), *seed)
	fmt.Printf("flows completed: %d/%d (finished at %v)\n", res.Completed, res.Total, res.FinishedAt)
	fmt.Printf("avg flow throughput: %.2f Gbps\n", res.AvgGoodput().Gigabits())
	fmt.Printf("flow throughput p10/p50/p90: %.2f / %.2f / %.2f Gbps\n",
		units.Rate(res.Goodputs.Quantile(0.1)).Gigabits(),
		units.Rate(res.Goodputs.Median()).Gigabits(),
		units.Rate(res.Goodputs.Quantile(0.9)).Gigabits())
	if res.HostCompletion.N() > 0 {
		fmt.Printf("host completion p50: %.2fs\n", res.HostCompletion.Median())
	}
	if c := l.Ctrl; c != nil {
		fmt.Printf("routing plane: epoch %d committed, %d ARP reroutes, %d OpenFlow reroutes\n",
			c.RoutingStore().Epoch(), c.ARPReroutes, c.OFReroutes)
	}
	if tracer != nil {
		tracer.FlushOpen() // spans still awaiting convergence → orphaned
		fmt.Println()
		tracer.WriteBreakdown(os.Stdout)
		if n := int(tracer.Converged.Value()); n < *traceMin {
			fmt.Fprintf(os.Stderr, "trace-min: %d converged traces, need %d\n", n, *traceMin)
			os.Exit(1)
		}
	}
	if *governFlag {
		var commits, converged int
		fmt.Println()
		for s, gov := range l.Governors {
			if gov == nil {
				continue
			}
			eff, conf := gov.LastEstimate()
			fmt.Printf("governor %s: commits=%d sheds=%d tunes=%d restores=%d converged=%d skipped(dark/cooldown/lowconf)=%d/%d/%d effective=%.2f conf=%.2f\n",
				l.Net.SwitchNames[s], gov.Commits.Value(), gov.Sheds.Value(), gov.Tunes.Value(),
				gov.Restores.Value(), gov.ConvergedEpisodes(),
				gov.SkippedDark.Value(), gov.SkippedCooldown.Value(), gov.SkippedLowConf.Value(),
				eff, conf)
			commits += int(gov.Commits.Value())
			converged += gov.ConvergedEpisodes()
		}
		if commits < *governMin || converged < *governMin {
			fmt.Fprintf(os.Stderr, "govern-min: %d commits / %d converged loops, need %d of each\n",
				commits, converged, *governMin)
			os.Exit(1)
		}
	}
}

func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GiB"):
		mult = 1 << 30
		s = strings.TrimSuffix(s, "GiB")
	case strings.HasSuffix(s, "MiB"):
		mult = 1 << 20
		s = strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult = 1 << 10
		s = strings.TrimSuffix(s, "KiB")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}
