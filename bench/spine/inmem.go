package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The three in-memory workloads are closed loops from one goroutine:
// generate a batch of 32 frames, hand it to Collector.IngestBatch,
// repeat. Stream time is synthetic (1 µs per sample), so what the
// collector computes does not depend on how fast the host runs.

// stream is what the closed loop needs from a generator.
type stream interface {
	next(ts []Time, frames [][]byte)
}

type inmem struct {
	fab     *fabric
	col     *Collector
	gen     stream
	steady  *steadyGen // one of steady, churn is set
	churn   *churnGen
	ts      []Time
	frames  [][]byte
	events  eventLog
	samples int64 // handed to IngestBatch, set-up included
	failed  int64 // rejected by the collector or failing an oracle
	notes   []string
}

// eventLog is the collector's one subscriber. It keeps what the
// oracles need and nothing else.
type eventLog struct {
	cooldown   Duration
	count      int64
	offPort    int64 // events on a port other than wantPort (when >= 0)
	wantPort   int
	violations int64 // same-port events closer than the cooldown
	last       [8]Time
	seen       [8]bool
	utilMin    Rate
	utilMax    Rate
}

func (l *eventLog) observe(ev Event) {
	l.count++
	if l.wantPort >= 0 && ev.Port != l.wantPort {
		l.offPort++
	}
	if p := ev.Port; p >= 0 && p < len(l.last) {
		if l.seen[p] && ev.Time.Sub(l.last[p]) < l.cooldown {
			l.violations++
		}
		l.last[p], l.seen[p] = ev.Time, true
	}
	if l.count == 1 || ev.Util < l.utilMin {
		l.utilMin = ev.Util
	}
	if ev.Util > l.utilMax {
		l.utilMax = ev.Util
	}
}

// buildInmem is one complete set-up: inputs generated, collector built
// over the routed fabric, table filled to the workload's population.
func buildInmem(name string, flows int, seed int64) *inmem {
	w := &inmem{
		fab:    newFabric(seed),
		ts:     make([]Time, batchSize),
		frames: make([][]byte, batchSize),
	}
	w.events.cooldown = eventCooldown()
	w.events.wantPort = -1
	w.col = w.fab.newCollector(nil)
	w.col.Subscribe(w.events.observe)
	if name == "churn" {
		w.churn = newChurnGen(seed, w.fab.numTrees(), flows)
		w.gen = w.churn
		w.events.wantPort = churnHotPort
		// Fill: one idle horizon of stream, expiry running as it always
		// does; nothing is old enough to expire yet.
		for w.churn.n < w.churn.idleSamples {
			w.batch()
			w.expireIfDue()
		}
	} else {
		w.steady = newSteadyGen(flows, seed)
		w.gen = w.steady
		w.steady.fill(w.ingest)
	}
	return w
}

func (w *inmem) ingest(ts []Time, frames [][]byte) {
	w.samples += int64(len(ts))
	if err := w.col.IngestBatch(ts, frames); err != nil {
		w.failed += int64(batchFailures(err, len(ts)))
		w.note("IngestBatch: %v", err)
	}
}

func (w *inmem) batch() {
	w.gen.next(w.ts, w.frames)
	w.ingest(w.ts, w.frames)
}

func (w *inmem) note(format string, args ...any) {
	if len(w.notes) < 20 {
		w.notes = append(w.notes, fmt.Sprintf(format, args...))
	}
}

// expireIfDue runs ExpireFlows when the churn stream crosses an expiry
// boundary, as a long-running deployment must, and checks the live
// count against the generator's exact figure. It returns the call's
// duration, or a negative value when no call was due.
func (w *inmem) expireIfDue() time.Duration {
	g := w.churn
	if g == nil || g.n/g.expireEvery == (g.n-batchSize)/g.expireEvery {
		return -1
	}
	t0 := time.Now()
	w.col.ExpireFlows(Time((g.n-1)*1000), Duration(g.idleSamples*1000))
	d := time.Since(t0)
	if got, want := w.col.Stats().Flows, g.liveAfterExpiry(); got != want {
		w.failed++
		w.note("live flows after expiry at sample %d: %d, want %d", g.n, got, want)
	}
	return d
}

// warm runs the loop unmeasured so caches, branch predictors and (for
// small populations) every flow's estimator are hot: one pass over the
// population, capped at 250 ms so a slow build does not stall set-up.
func (w *inmem) warm() {
	if w.steady == nil {
		return
	}
	deadline := time.Now().Add(250 * time.Millisecond)
	for b := 0; b < w.steady.flows()*visitLen/batchSize; b++ {
		w.batch()
		if b%64 == 0 && time.Now().After(deadline) {
			break
		}
	}
}

// window is one measured stretch of the closed loop.
type window struct {
	samples  int64
	wall     float64   // s
	cpu      float64   // s, process user+system
	rates    []float64 // Msps, one per cycle
	p50s     []float64 // µs: each cycle's median timed IngestBatch call
	p90s     []float64 // µs: each cycle's p90
	lat      sampler   // µs per timed IngestBatch call, whole window
	rss      sampler   // MB, read at every cycle end
	expireMs []float64 // per ExpireFlows call
	updates  int64     // rate updates
	newFlows int64
}

// msps is the window's throughput: the median cycle's. A cycle is one
// expiry period in churn and a twentieth of the window otherwise; the
// median keeps a stall or a contended phase of the host out of the
// figure.
func (w *window) msps() float64 { return median(w.rates) }

// maxBatchSpans caps the IngestBatch spans one window records; a fast
// workload makes millions of calls, and the span file is for reading.
const maxBatchSpans = 50_000

// expiriesPerCycle makes a churn cycle one idle horizon of stream. What
// an ExpireFlows call costs depends on where the flows it removes sit in
// the collector's per-port lists, and that repeats with the horizon: the
// four calls of a horizon differ fourfold, always in the same order.
const expiriesPerCycle = 4

// measure runs the closed loop for at least dur and ends on a cycle
// boundary. Every 8th IngestBatch call is timed, so that two clock reads
// stay near 1 % of a 2 µs call; every call is timed when calls are slow
// enough for the reads not to matter (the first 64 calls decide), and
// when tr is set, which also records one span per call.
func (w *inmem) measure(dur time.Duration, tr *tracer) window {
	var win window
	const probe, slowCall = 64, 20.0 // calls, µs
	every := 1
	slice := dur / 20
	var cycleLat []float64
	expiries := 0
	st0 := w.col.Stats()
	scans0 := w.scans()
	cpu0 := cpuSeconds()
	start := time.Now()
	root := tr.begin("window", -1, start)
	cycleStart, cycleSamples := start, w.samples
	samples0 := w.samples

	// endCycle closes the cycle that ended at now. Its own bookkeeping
	// (a sort, a /proc read) falls between cycles, outside both.
	endCycle := func(now time.Time) bool {
		if el := now.Sub(cycleStart).Seconds(); el > 0 {
			win.rates = append(win.rates, float64(w.samples-cycleSamples)/el/1e6)
		}
		if len(cycleLat) > 0 {
			sort.Float64s(cycleLat)
			win.p50s = append(win.p50s, quantile(cycleLat, 0.50))
			win.p90s = append(win.p90s, quantile(cycleLat, 0.90))
			cycleLat = cycleLat[:0]
		}
		win.rss.add(rssNowMB())
		cycleStart, cycleSamples = time.Now(), w.samples
		return now.Sub(start) >= dur
	}
	for b := 0; ; b++ {
		w.gen.next(w.ts, w.frames)
		if b%every != 0 {
			w.ingest(w.ts, w.frames)
		} else {
			t0 := time.Now()
			w.ingest(w.ts, w.frames)
			t1 := time.Now()
			us := float64(t1.Sub(t0)) / 1e3
			win.lat.add(us)
			cycleLat = append(cycleLat, us)
			if win.lat.n <= maxBatchSpans {
				tr.span("core.IngestBatch", root, t0, t1)
			}
			if b == probe-1 && tr == nil && win.lat.mean() < slowCall {
				every = 8
			}
			if w.churn == nil && t1.Sub(cycleStart) >= slice && endCycle(t1) {
				break
			}
		}
		if d := w.expireIfDue(); d >= 0 {
			now := time.Now()
			win.expireMs = append(win.expireMs, float64(d)/1e6)
			tr.span("core.ExpireFlows", root, now.Add(-d), now)
			if expiries++; expiries%expiriesPerCycle == 0 && endCycle(now) {
				break
			}
		}
	}
	end := time.Now()
	tr.end(root, end)
	st1 := w.col.Stats()
	win.samples = w.samples - samples0
	win.wall = end.Sub(start).Seconds()
	win.cpu = cpuSeconds() - cpu0
	win.updates = st1.RateUpdates - st0.RateUpdates
	win.newFlows = w.scans() - scans0
	return win
}

func (w *inmem) scans() int64 {
	if w.churn != nil {
		return int64(w.churn.scans)
	}
	return 0
}

// oracle checks the collector's outputs against what the generator
// knows, counts each violation into failed, and returns the largest
// relative rate error it saw (percent).
func (w *inmem) oracle() (rateErrPct float64) {
	st := w.col.Stats()
	fail := func(format string, args ...any) {
		w.failed++
		w.note(format, args...)
	}
	if st.DecodeErrors != 0 || st.NonTCP != 0 || st.UnmappedOutput != 0 {
		fail("collector counted %d decode errors, %d non-TCP, %d unmapped", st.DecodeErrors, st.NonTCP, st.UnmappedOutput)
	}
	if st.Samples != w.samples {
		fail("collector accepted %d of %d samples", st.Samples, w.samples)
	}
	if w.events.violations != 0 {
		fail("%d congestion events inside their port's cooldown", w.events.violations)
	}

	var checked []flowSpec
	if w.churn != nil {
		checked = w.churn.eleph[:]
		// Elephant 0 closes a window every 9th of its samples (720 µs),
		// and only it can fire while the hot port is out of cooldown.
		streamMs := float64(w.churn.n) / 1000
		if float64(w.events.count) < 0.9*streamMs {
			fail("%d congestion events over %.0f ms of overload", w.events.count, streamMs)
		}
		if w.events.offPort != 0 {
			fail("%d congestion events off the overloaded port", w.events.offPort)
		}
		want := w.churn.eleph[0].rate() + w.churn.eleph[1].rate()
		if w.events.count > 0 && (relErr(w.events.utilMin, want) > 3 || relErr(w.events.utilMax, want) > 3) {
			fail("event utilisation %v..%v, generated %v", w.events.utilMin, w.events.utilMax, want)
		}
	} else {
		if st.Flows != w.steady.flows() {
			fail("live flows %d, want %d", st.Flows, w.steady.flows())
		}
		if w.events.count != 0 {
			fail("%d congestion events on ports loaded far below threshold", w.events.count)
		}
		checked = w.steady.current()
	}
	estimated := 0
	for _, f := range checked {
		got, ok := w.col.FlowRate(f.key)
		if !ok {
			continue
		}
		estimated++
		e := relErr(got, f.rate())
		rateErrPct = math.Max(rateErrPct, e)
		if e > 3 {
			fail("flow %v estimated at %v, generated at %v", f.key, got, f.rate())
		}
	}
	if estimated == 0 || (w.churn != nil && estimated != len(checked)) {
		fail("%d of %d checked flows have a rate estimate", estimated, len(checked))
	}
	return rateErrPct
}

func relErr(got, want Rate) float64 {
	return 100 * math.Abs(float64(got-want)) / float64(want)
}
