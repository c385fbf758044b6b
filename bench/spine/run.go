package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one invocation: one workload, one seed, one process.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// flows overrides the workload's population (0 = full size); only
	// the smoke test shrinks the large workloads with it.
	flows int
	// setups is how many times set-up runs at least; setup_s is their
	// median. A set-up of milliseconds is repeated further, up to
	// maxSetups times or setupBudget in all.
	setups int
	outDir string
}

// result is what one invocation measured. metrics holds every metric
// the run produced, end-to-end or per-layer; the caller prints the set
// its mode calls for.
type result struct {
	attempted int64
	failed    int64 // operations that failed, oracle violations included
	wrong     int64 // oracle violations: outputs that are not what the inputs call for
	metrics   map[string]float64
	notes     []string // oracle violations, in words
	counts    []string // sample counts behind the quantiles
	tracePath string
}

const (
	maxSetups   = 41
	setupBudget = 500 * time.Millisecond
)

// moreSetups reports whether another set-up should run after those
// timed so far.
func (cfg config) moreSetups(done []float64) bool {
	var total float64
	for _, s := range done {
		total += s
	}
	return len(done) < cfg.setups || (cfg.setups > 1 && len(done) < maxSetups && total < setupBudget.Seconds())
}

var fullSize = map[string]int{"steady-1k": 1000, "steady-1m": 1_000_000, "churn": 180_000}

func runWorkload(cfg config) (*result, error) {
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	switch cfg.workload {
	case "steady-1k", "steady-1m", "churn":
		if cfg.flows == 0 || cfg.workload == "steady-1k" {
			cfg.flows = fullSize[cfg.workload]
		}
		return runInmem(cfg)
	case "loop":
		return runLoop(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and %v)", cfg.workload, workloadNames, ungatedWorkloads)
}

// release drops a finished set-up's memory back to the OS so repeated
// set-ups do not stack up in the peak-RSS figure.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

func runInmem(cfg config) (*result, error) {
	// The in-memory workloads are one goroutine's closed loop, so they run
	// on one P: the garbage collector's work then lands on the measured
	// thread and counts against the throughput. With two, its workers run
	// on the second vCPU whenever the host lets them, and churn's figures
	// spread by 20 % from run to run of the same code instead of 3 %.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &result{metrics: map[string]float64{}}
	m := res.metrics
	dur := time.Duration(cfg.seconds * float64(time.Second))

	var w *inmem
	var setups []float64
	for cfg.moreSetups(setups) {
		w = nil
		release()
		t0 := time.Now()
		w = buildInmem(cfg.workload, cfg.flows, cfg.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	m["setup_s"] = median(setups)
	w.warm()

	var win window
	var tr *tracer
	if !cfg.trace {
		win = w.measure(dur, nil)
	} else {
		// Half the window untraced, half traced: the ratio of the two is
		// what tracing costs.
		plain := w.measure(dur/2, nil)
		m["rss_peak_mb"] = rssPeakMB() // before tracing adds its own memory
		tr = newTracer(time.Now())
		win = w.measure(dur/2, tr)
		m["trace.overhead_ratio"] = plain.msps() / win.msps()
	}
	rateErr := w.oracle()

	lat := win.lat.sorted()
	m["ingest_msps"] = win.msps()
	m["latency_p50_us"] = median(win.p50s)
	m["latency_p90_us"] = median(win.p90s)
	m["rss_p90_mb"] = win.rss.quantile(0.90)
	res.counts = append(res.counts,
		fmt.Sprintf("%d samples in %.2f s over %d cycles", win.samples, win.wall, len(win.rates)),
		fmt.Sprintf("%d IngestBatch calls timed", win.lat.n))

	if cfg.trace {
		lt := w.layers(tr, cfg.flows, cfg.seed)
		// Every call of the traced half was timed, so the mean call is what
		// IngestBatch costs per batch, generator and harness excluded.
		ingestNs := win.lat.mean() * 1e3 / batchSize
		updRatio := float64(win.updates) / float64(win.samples)
		newRatio := float64(win.newFlows) / float64(win.samples)
		var expireNs float64
		for _, ms := range win.expireMs {
			expireNs += ms * 1e6
		}
		expireNs /= float64(win.samples)
		sort.Float64s(win.expireMs)
		probeMean, _ := w.col.FlowTableProbeStats()

		m["cpu_us_per_sample"] = win.cpu / float64(win.samples) * 1e6
		m["batch_p50_us"] = quantile(lat, 0.50)
		m["batch_p99_us"] = quantile(lat, 0.99)
		m["core.batch_p999_us"] = quantile(lat, 0.999)
		m["core.batch_max_us"] = quantile(lat, 1)
		m["packet.decode_ns"] = lt.decodeNs
		m["core.ingest_ns"] = ingestNs
		m["core.table_lookup_ns"] = lt.lookupNs
		m["core.table_insert_ns"] = lt.insertNs
		m["core.estimator_ns"] = lt.estimatorNs
		m["core.link_util_ns"] = lt.linkUtilNs
		m["routing.resolve_ns"] = lt.resolveNs
		m["core.expire_p50_ms"] = quantile(win.expireMs, 0.5)
		m["core.expire_max_ms"] = quantile(win.expireMs, 1)
		m["core.rate_update_ratio"] = updRatio
		m["core.live_flows"] = float64(w.col.Stats().Flows)
		m["core.probe_mean"] = probeMean
		m["core.rate_err_pct"] = rateErr
		// What one sample would cost if the layers simply added up —
		// decode, probe and estimator always; the utilisation scan per
		// rate update; insert and route resolution per new flow; expiry
		// spread over the samples between calls — against what the
		// collector's calls did cost.
		m["steady.closure_ratio"] = (lt.decodeNs + lt.lookupNs + lt.estimatorNs +
			updRatio*lt.linkUtilNs + newRatio*(lt.insertNs+lt.resolveNs) + expireNs) / (ingestNs + expireNs)
		m["env.sleep_overshoot_p50_us"], m["env.time_now_ns"] = hostProbes()
		path, err := tr.write(cfg.outDir, cfg.workload)
		if err != nil {
			return nil, err
		}
		res.tracePath = path
	}

	res.attempted = w.samples
	res.failed, res.wrong = w.failed, w.failed
	res.notes = w.notes
	m["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}

func runLoop(cfg config) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	m := res.metrics

	var r *loopRun
	var setups []float64
	for cfg.moreSetups(setups) {
		if r != nil {
			r.close()
		}
		release()
		t0 := time.Now()
		var err error
		if r, err = buildLoop(cfg.seed, cfg.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m["setup_s"] = median(setups)

	const warm = 15 // episodes: 0.3 s
	n := max(int(cfg.seconds*float64(time.Second)/float64(episodePeriod*burstPeriod)), 2)
	stretches, traced := []int{n}, []bool{false}
	if cfg.trace {
		stretches, traced = []int{n / 2, n - n/2}, []bool{false, true}
	}
	marks := r.run(warm, stretches, traced)
	lc := r.close()

	last := len(stretches) - 1
	from := warm
	for _, s := range stretches[:last] {
		from += s
	}
	rc := collectEpisodes(r.episodes[from : from+stretches[last]])
	a, b := marks[last], marks[last+1]
	sent := float64(b.sent - a.sent)

	m["ingest_msps"] = float64(b.accepted-a.accepted) / b.at.Sub(a.at).Seconds() / 1e6
	m["latency_p50_us"] = median(rc.p50s)
	m["latency_p90_us"] = median(rc.p90s)
	m["cpu_us_per_sample"] = (b.cpu - a.cpu) / sent * 1e6
	m["rss_p90_mb"] = r.rss.quantile(0.90)
	res.counts = append(res.counts,
		fmt.Sprintf("%d episodes in %d periods, %d with a commit", rc.episodes, stretches[last], len(rc.us)),
		fmt.Sprintf("%.0f datagrams sent in %.2f s", sent, b.at.Sub(a.at).Seconds()))

	accepted, totalSent := r.st.Samples.Load(), r.sent.Load()
	loopOracle(res, r, lc, rc)
	res.attempted = int64(rc.episodes)
	m["drop_ratio"] = 1 - float64(accepted)/float64(totalSent)
	m["gen.late_ratio"] = float64(r.late.Load()) / float64(r.bursts.Load())
	res.counts = append(res.counts, fmt.Sprintf("%d of %d datagrams dropped before the collector, %d of %d bursts sent over %v late, %d episodes abandoned without a commit, %d commits over %v, longest %.0f us",
		totalSent-accepted, totalSent, r.late.Load(), r.bursts.Load(), lateAfter, rc.missing, rc.late, commitLimit, quantile(rc.us, 1)))
	m["fail_ratio"] = float64(res.failed+int64(rc.late)) / float64(res.attempted)

	if cfg.trace {
		plain := collectEpisodes(r.episodes[warm : warm+stretches[0]])
		m["trace.overhead_ratio"] = quantile(rc.us, 0.5) / quantile(plain.us, 0.5)
		m["rss_peak_mb"] = rssPeakMB()
		m["react_p50_us"] = quantile(rc.us, 0.50)
		m["react_p90_us"] = quantile(rc.us, 0.90)
		m["loop.react_p99_us"] = quantile(rc.us, 0.99)

		// Stage medians over the traced episodes whose chain closed, and
		// one span tree per episode.
		tr := newTracer(r.origin)
		var stages [6][]float64
		for i, ep := range r.episodes[from:] {
			if !ep.complete {
				continue
			}
			root := tr.add("episode", -1, from+i, ep.trigger, ep.commit)
			at := ep.trigger
			for s, d := range ep.stages {
				stages[s] = append(stages[s], float64(d)/1e3)
				tr.add(stageNames[s], root, from+i, at, at.Add(d))
				at = at.Add(d)
			}
		}
		var sum float64
		for s := range stages {
			sum += median(stages[s])
		}
		m["planck.capture_wait_us"] = r.captureWait.quantile(0.5)
		m["planck.batch_size"] = r.batchSizes.mean()
		m["core.ingest_ns"] = median(stages[1]) * 1e3
		hop := r.hop.sorted()
		m["vantagelink.hop_p50_us"] = quantile(hop, 0.50)
		m["vantagelink.hop_p90_us"] = quantile(hop, 0.90)
		m["agg.report_ns"] = r.aggReportNs.quantile(0.5)
		m["agg.hold_us"] = median(stages[3])
		m["te.decide_us"] = median(stages[4])
		m["routing.commit_us"] = median(stages[5])
		m["loop.closure_ratio"] = sum / m["react_p50_us"]
		m["vantagelink.frames_per_ksample"] = float64(lc.framesSent) / float64(accepted) * 1e3
		m["vantagelink.resend_ratio"] = float64(lc.resends) / float64(lc.framesSent)
		m["vantagelink.gap_ratio"] = float64(lc.gaps) / float64(lc.framesRecv)
		m["vantagelink.abandon_ratio"] = float64(lc.abandoned) / float64(lc.framesRecv)
		m["vantagelink.sync_offset_us"] = lc.offset.Microseconds()
		m["core.live_flows"] = float64(r.col.Stats().Flows)
		m["core.rate_update_ratio"] = float64(r.col.Stats().RateUpdates) / float64(accepted)
		m["env.sleep_overshoot_p50_us"], m["env.time_now_ns"] = hostProbes()
		res.counts = append(res.counts, fmt.Sprintf("%d traced episodes with a closed stage chain", len(stages[0])))
		path, err := tr.write(cfg.outDir, cfg.workload)
		if err != nil {
			return nil, err
		}
		res.tracePath = path
	}
	return res, nil
}

// reacts is what a stretch of episodes measured.
type reacts struct {
	us                      []float64 // every committed episode, ascending
	p50s, p90s              []float64 // per cycle of episodes
	episodes, missing, late int
}

// collectEpisodes reads a stretch's episodes cycle by cycle. A cycle is
// a twentieth of the stretch's periods — one second at full length — and
// the last cycle takes the remainder. A period that started no episode
// (the one before ran into it) is not an operation.
func collectEpisodes(eps []episode) (out reacts) {
	size := max(len(eps)/20, 10)
	cycles := max(len(eps)/size, 1)
	for c := 0; c < cycles; c++ {
		cycle := eps[c*size:]
		if c < cycles-1 {
			cycle = cycle[:size]
		}
		var us []float64
		for _, ep := range cycle {
			if ep.skipped {
				continue
			}
			out.episodes++
			if ep.commit.IsZero() {
				out.missing++
				continue
			}
			d := ep.commit.Sub(ep.trigger)
			if d > commitLimit {
				out.late++
			}
			us = append(us, float64(d)/1e3)
		}
		if len(us) > 0 {
			sort.Float64s(us)
			out.p50s = append(out.p50s, quantile(us, 0.50))
			out.p90s = append(out.p90s, quantile(us, 0.90))
			out.us = append(out.us, us...)
		}
	}
	sort.Float64s(out.us)
	return out
}

// loopOracle checks a finished loop run and counts what it finds into
// res: nothing is delivered twice or out of order, events respect the
// cooldown, the serve loop rejects nothing, nothing is lost unless the
// link itself says it gave up on a gap, and every episode ends in a
// commit. An episode lasts until its commit, so a host stall (which
// drops frames at the report receiver's socket and poisons the link's
// clock offset, see README) makes it long, not failed; only an episode
// the generator abandoned after 10 s is a failed operation.
func loopOracle(res *result, r *loopRun, lc linkCounters, rc reacts) {
	fail := func(n int64, format string, args ...any) {
		if n != 0 {
			res.failed += n
			res.wrong += n
			res.notes = append(res.notes, fmt.Sprintf(format, args...))
		}
	}
	accepted := r.st.Samples.Load()
	lost := lc.recordsSent - lc.released
	fail(int64(rc.missing), "%d of %d episodes had no commit within %v", rc.missing, rc.episodes, giveUpBursts*burstPeriod)
	fail(abs(lc.recordsSent-accepted), "collector accepted %d samples but reported %d records", accepted, lc.recordsSent)
	if lost < 0 || (lost > 0 && lc.abandoned+lc.sheds == 0) {
		fail(abs(lost), "receiver released %d of %d records with no gap abandoned", lc.released, lc.recordsSent)
	}
	fail(abs(r.delivered-lc.released), "vantage saw %d of %d released records", r.delivered, lc.released)
	fail(max(r.disorder-lc.late, 0), "%d records delivered out of time order, %d known late", r.disorder, lc.late)
	if lost == 0 {
		fail(r.mismatch, "a delivery did not pair with the report sent in its position")
	}
	fail(r.violations, "%d events inside their link's cooldown", r.violations)
	fail(r.st.IngestErrors.Load()+r.st.ShortDatagrams.Load()+r.st.TimestampRegressions.Load(),
		"serve loop counted %d ingest errors, %d short datagrams, %d timestamp regressions",
		r.st.IngestErrors.Load(), r.st.ShortDatagrams.Load(), r.st.TimestampRegressions.Load())
	if lost > 0 {
		res.counts = append(res.counts, fmt.Sprintf("report link lost %d of %d records: %d gaps abandoned, %d frames shed", lost, lc.recordsSent, lc.abandoned, lc.sheds))
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
