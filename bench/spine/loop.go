package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The loop workload is the real path on the wall clock, in one process
// over loopback sockets: sample datagram -> ServeUDPBatched -> collector
// -> report sender -> UDP -> report receiver -> aggregation plane ->
// controller -> PlanckTE -> routing commit. An open-loop generator sends
// at a fixed rate whatever the system does; each datagram carries the
// time it was due, so a stall anywhere — the generator included — shows
// up as latency.

const (
	burstPeriod   = 200 * time.Microsecond
	burstSize     = 10 // 50,000 datagrams/s
	stampStep     = 2 * time.Microsecond
	episodePeriod = 100   // bursts: one episode every 20 ms
	episodeBursts = 30    // bursts: elephants run for 6 ms, and on until the commit
	quietBursts   = 50    // bursts: an episode starts no sooner than 10 ms after the last ended
	giveUpBursts  = 50000 // bursts: an episode 10 s without a commit is abandoned and failed
	lateAfter     = 500 * time.Microsecond
	commitLimit   = 100 * time.Millisecond
	mice          = 1000
	elephantPort  = 6001    // destination port no mouse uses
	elephantBase  = 10000   // episode m's elephants use source port elephantBase+m
	mouseRate     = 125     // bytes/ms = 1 Mb/s
	elephantRate  = 600_000 // bytes/ms = 4.8 Gb/s
	traceRing     = 1 << 16
)

// episode is what the harness learns about one elephant episode.
// Written on the receiver's goroutines, read after they have stopped.
type episode struct {
	skipped  bool // no episode started in this period: the one before ran into it
	events   int
	trigger  time.Time // when the first event's trigger burst was due
	commit   time.Time // first DeliverEvent return that found a new epoch
	stages   [6]time.Duration
	complete bool // stages filled (traced episodes only)
}

var stageNames = [6]string{
	"planck.capture_wait", "core.ingest", "vantagelink.hop", "agg.hold", "te.decide", "routing.commit",
}

// reportStamp is what the sender-side tap remembers of one report until
// the receiver-side tap pairs it with its delivery.
type reportStamp struct {
	key         FlowKey
	ingestEntry time.Time // entry of the IngestBatch call that produced it
	reported    time.Time
}

// delivery is one rate-updating record as the plane received it; an
// event's trigger is found here by its (corrected) record time.
type delivery struct {
	time      Time
	delivered time.Time
	from      reportStamp
}

type loopRun struct {
	fab  *fabric
	link *reportLink
	col  *Collector
	st   UDPServeStats
	conn *net.UDPConn // collector's ingest socket
	gen  *net.UDPConn // generator's socket, connected to conn
	serv chan error

	labels [2][16]atomic.Int32 // current tree of pair (local host, dst)
	rng    *rand.Rand          // generator goroutine only
	miceFr [][]byte
	order  []int
	origin time.Time // schedule origin: burst k is due at origin + k*burstPeriod
	seqT0  int64     // ns: the time the mice's sequence numbers count from
	rss    sampler   // MB, read every 50 ms of the last stretch; main goroutine only
	sent   atomic.Int64
	late   atomic.Int64
	bursts atomic.Int64

	// overrun[m] is set by the generator when period m starts no episode
	// because an earlier one has not had its commit yet (or ended under
	// 10 ms ago); read once the generator has returned. committed is the
	// number of the last episode with a commit, plus one, set by the
	// receiver.
	overrun   []bool
	committed atomic.Int64

	// Receiver-side state, touched only under the receiver's lock.
	episodes    []episode
	lastTime    Time
	delivered   int64
	disorder    int64
	mismatch    int64
	violations  int64
	lastEvent   map[int]Time
	cooldown    Duration
	rerouteAt   time.Time
	recent      [1024]delivery
	recentN     int
	hop         sampler // µs, every record, traced stretch only
	aggReportNs sampler

	// Trace taps. tracing gates them so one process can measure an
	// untraced and a traced stretch back to back.
	tracing     atomic.Bool
	mu          sync.Mutex // guards ring and reported between serve and receiver goroutines
	ring        []reportStamp
	reported    int64
	ingestEntry time.Time // serve goroutine only
	captureWait sampler   // µs, serve goroutine only
	batchSizes  sampler
}

// buildLoop is one complete set-up: fabric with TE attached, report
// link up and clock-synced, collector serving its socket, generator
// socket connected. traced installs the ingester and sink taps.
func buildLoop(seed int64, traced bool) (*loopRun, error) {
	r := &loopRun{
		fab:       newFabric(seed),
		rng:       rand.New(rand.NewSource(seed)),
		serv:      make(chan error, 1),
		lastEvent: make(map[int]Time),
	}
	r.cooldown = eventCooldown()
	r.fab.attachTE()
	r.fab.onReroute(func(src, dst, tree int) {
		r.rerouteAt = time.Now()
		if src < len(r.labels) {
			r.labels[src][dst].Store(int32(tree))
		}
	})
	var err error
	if r.link, err = r.fab.newReportLink(func(next ReportSink) ReportSink { return &deliveryTap{r, next} }, r.onEvent); err != nil {
		return nil, err
	}
	sink := r.link.sink()
	if traced {
		r.ring = make([]reportStamp, traceRing)
		sink = &sinkTap{r, sink}
	}
	r.col = r.fab.newCollector(sink)
	var ing Ingester = r.col
	if traced {
		ing = &ingestTap{r, r.col}
	}
	if r.conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		r.link.close()
		return nil, err
	}
	// The harness owns the ingest socket and gives it the largest receive
	// buffer the kernel allows here, about 100 ms of traffic: a host stall
	// then shows as latency, not as lost episodes. Socket-path capacity is
	// not what this workload measures.
	_ = r.conn.SetReadBuffer(4 << 20)
	go func() { r.serv <- serveUDP(r.conn, ing, &r.st) }()
	if r.gen, err = net.DialUDP("udp", nil, r.conn.LocalAddr().(*net.UDPAddr)); err != nil {
		r.close()
		return nil, err
	}
	for deadline := time.Now().Add(2 * time.Second); !r.link.synced(); {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("report link never completed clock sync")
		}
		sleepUntil(time.Now().Add(100 * time.Microsecond))
	}

	salt := r.rng.Uint64()
	r.order = r.rng.Perm(mice)
	for i := 0; i < mice; i++ {
		f := steadyFlow(uint32(i), salt)
		r.miceFr = append(r.miceFr, newFrame(f, flagACK))
	}

	// Fill: every mouse once, at the offered rate, and wait until the
	// plane holds them all.
	r.origin = time.Now().Add(time.Millisecond)
	r.seqT0 = r.origin.UnixNano()
	r.generate(mice/burstSize, false)
	for deadline := time.Now().Add(2 * time.Second); ; {
		if n, _ := r.link.released(); n >= mice {
			return r, nil
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("the plane never received the %d mice", mice)
		}
		sleepUntil(time.Now().Add(100 * time.Microsecond))
	}
}

// close tears the system down and returns the link's totals.
func (r *loopRun) close() linkCounters {
	if r.gen != nil {
		r.gen.Close()
	}
	r.conn.Close()
	<-r.serv
	return r.link.close()
}

// generate is the open-loop load: burst k is due at origin +
// k*burstPeriod and holds burstSize datagrams stamped with that time
// plus 2 µs apiece. With episodes on, an episode starts every 100th
// burst: every other datagram belongs to one of two fresh 4.8 Gb/s
// elephants, for 30 bursts and on until the harness has seen the
// episode's commit, as congestion lasts until something is done about
// it. On a quiet host the commit comes within 2 ms and every episode is
// 30 bursts long; after a host stall it can take tens of ms, and the
// periods the episode runs into (and the first 10 ms after it) start no
// episode of their own. The other datagrams go round the mice in seeded
// order. generate returns after `bursts` bursts and the end of the
// episode then running. It runs on its own OS thread and sleeps with
// nanosleep, so it is on time to within the kernel's timer.
func (r *loopRun) generate(bursts int, episodes bool) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)

	var eleph [2]struct {
		frame    []byte
		src, dst int
	}
	var buf []byte
	originNs := r.origin.UnixNano()
	cursor := 0
	active, start := -1, 0   // the running episode and its first burst
	idleFrom := -quietBursts // the burst after the last episode's last
	for k := 0; k < bursts || active >= 0; k++ {
		due := r.origin.Add(time.Duration(k) * burstPeriod)
		sleepUntil(due)
		if time.Since(due) > lateAfter {
			r.late.Add(1)
		}
		if active >= 0 && k-start >= episodeBursts && (r.committed.Load() > int64(active) || k-start >= giveUpBursts) {
			active, idleFrom = -1, k
		}
		if m := k / episodePeriod; episodes && k%episodePeriod == 0 && m < len(r.overrun) {
			if active >= 0 || k-idleFrom < quietBursts {
				r.overrun[m] = true
			} else {
				active, start = m, k
				a, b := r.pickPairs()
				sport := uint16(elephantBase + m)
				for e, p := range [2][2]int{a, b} {
					eleph[e].src, eleph[e].dst = p[0], p[1]
					eleph[e].frame = newFrame(pairFlow(p[0], p[1], 0, true, sport, elephantPort, elephantRate), flagACK)
				}
			}
		}
		dueNs := originNs + int64(k)*int64(burstPeriod)
		episodeNs := originNs + int64(start)*int64(burstPeriod)
		for j := 0; j < burstSize; j++ {
			stamp := dueNs + int64(j)*int64(stampStep)
			var frame []byte
			if active >= 0 && j%2 == 1 {
				el := &eleph[(j/2+k)%2]
				frame = el.frame
				mac := shadowMAC(el.dst, int(r.labels[el.src][el.dst].Load()))
				copy(frame[offDstMAC:], mac[:])
				binary.BigEndian.PutUint32(frame[offSeq:], seqAt(elephantRate, stamp-episodeNs))
			} else {
				frame = r.miceFr[r.order[cursor]]
				if cursor++; cursor == mice {
					cursor = 0
				}
				binary.BigEndian.PutUint32(frame[offSeq:], seqAt(mouseRate, stamp-r.seqT0))
			}
			buf = encodeSample(buf, Time(stamp), frame)
			if _, err := r.gen.Write(buf); err == nil {
				r.sent.Add(1)
			}
		}
		r.bursts.Add(1)
	}
}

// pickPairs chooses the episode's two (local host, destination) pairs:
// distinct destinations whose current labels leave the monitored switch
// on the same uplink, from the uplink that more pairs share.
func (r *loopRun) pickPairs() (a, b [2]int) {
	var byPort [2][][2]int
	for src := 0; src < 2; src++ {
		for dst := 2; dst < r.fab.numHosts(); dst++ {
			up := r.fab.outPort(dst, int(r.labels[src][dst].Load())) - 2
			byPort[up] = append(byPort[up], [2]int{src, dst})
		}
	}
	group := byPort[0]
	if len(byPort[1]) > len(group) {
		group = byPort[1]
	}
	a = group[r.rng.Intn(len(group))]
	off := r.rng.Intn(len(group))
	for _, otherSrc := range []bool{true, false} {
		for i := range group {
			p := group[(off+i)%len(group)]
			if p[1] != a[1] && (p[0] != a[0]) == otherSrc {
				return a, p
			}
		}
	}
	panic("no second pair shares the uplink") // 14+ pairs share it
}

// burstDue recovers when the burst that carried a record stamped t was
// due. The link's clock correction shifts record times by its current
// offset estimate — tens of µs — and stamps within a burst span 18 µs,
// so rounding to the nearest burst period is exact.
func (r *loopRun) burstDue(t Time) time.Time {
	k := (int64(t) - r.origin.UnixNano() + int64(burstPeriod)/2) / int64(burstPeriod)
	return r.origin.Add(time.Duration(k) * burstPeriod)
}

// onEvent is the plane's subscriber: it hands the merged event to the
// controller and notes, per episode, the first event's trigger time and
// the first commit. It runs on the receiver's goroutines, under the
// receiver's lock.
func (r *loopRun) onEvent(ev Event) {
	entry := time.Now()
	before := r.fab.epoch()
	r.fab.deliver(ev)
	ret := time.Now()

	if last, ok := r.lastEvent[ev.Port]; ok && ev.Time.Sub(last) < r.cooldown {
		r.violations++
	}
	r.lastEvent[ev.Port] = ev.Time

	// An event belongs to the episode whose elephants it lists, the latest
	// if it lists two. Its time is the trigger sample's stamp, which names
	// the burst that carried it; after a host stall has thrown the link's
	// clock offset that time can be tens of ms out, so the trigger is kept
	// within the episode's life so far.
	m := -1
	for i := range ev.Flows {
		if k := ev.Flows[i].Key; k.DstPort == elephantPort {
			m = max(m, int(k.SrcPort)-elephantBase)
		}
	}
	if m < 0 || m >= len(r.episodes) {
		return
	}
	ep := &r.episodes[m]
	if ep.events++; ep.events == 1 {
		ep.trigger = r.burstDue(ev.Time)
		if first := r.origin.Add(time.Duration(m*episodePeriod) * burstPeriod); ep.trigger.Before(first) {
			ep.trigger = first
		} else if ep.trigger.After(entry) {
			ep.trigger = entry
		}
	}
	if r.fab.epoch() == before || !ep.commit.IsZero() {
		return
	}
	ep.commit = ret
	r.committed.Store(max(r.committed.Load(), int64(m)+1))
	if !r.tracing.Load() {
		return
	}
	for i := 0; i < min(r.recentN, len(r.recent)); i++ {
		d := &r.recent[(r.recentN-1-i)%len(r.recent)]
		if d.time != ev.Time {
			continue
		}
		// The chain from the first event's trigger only closes when this
		// committing event is that first event.
		if ep.events == 1 {
			ep.stages = [6]time.Duration{
				d.from.ingestEntry.Sub(ep.trigger),
				d.from.reported.Sub(d.from.ingestEntry),
				d.delivered.Sub(d.from.reported),
				entry.Sub(d.delivered),
				r.rerouteAt.Sub(entry),
				ret.Sub(r.rerouteAt),
			}
			ep.complete = true
		}
		break
	}
}

// deliveryTap sits between the receiver and the plane vantage. Always:
// it counts deliveries and checks they arrive in time order. Traced: it
// pairs the i-th delivery with the i-th report (records arrive exactly
// once and in order; verified by flow key) for the hop time, and times
// the vantage's Report.
type deliveryTap struct {
	r    *loopRun
	next ReportSink
}

func (t *deliveryTap) Live(now Time)     { t.next.Live(now) }
func (t *deliveryTap) Rejoin(gen uint32) { t.next.Rejoin(gen) }

func (t *deliveryTap) Report(rep *FlowReport) {
	r := t.r
	if rep.Time < r.lastTime {
		r.disorder++
	}
	r.lastTime = rep.Time
	i := r.delivered
	r.delivered++
	if r.ring == nil {
		t.next.Report(rep)
		return
	}
	r.mu.Lock()
	from, lag := r.ring[i%traceRing], r.reported-i
	r.mu.Unlock()
	// Pairing by position holds until the link loses a record; from the
	// first mismatch on, positions have shifted and nothing pairs.
	paired := lag <= traceRing && r.mismatch == 0
	if paired && from.key != rep.Key {
		r.mismatch++
		paired = false
	}
	if !r.tracing.Load() {
		t.next.Report(rep)
		return
	}
	t0 := time.Now()
	t.next.Report(rep)
	t1 := time.Now()
	if paired {
		r.hop.add(float64(t0.Sub(from.reported)) / 1e3)
		r.aggReportNs.add(float64(t1.Sub(t0)))
		if rep.RateUpdated {
			r.recent[r.recentN%len(r.recent)] = delivery{time: rep.Time, delivered: t0, from: from}
			r.recentN++
		}
	}
}

// sinkTap sits between the collector and the report sender.
type sinkTap struct {
	r    *loopRun
	next Sink
}

func (t *sinkTap) BatchEnd(now Time) { t.next.BatchEnd(now) }

func (t *sinkTap) Report(rep *FlowReport) {
	r := t.r
	s := reportStamp{key: rep.Key, ingestEntry: r.ingestEntry, reported: time.Now()}
	r.mu.Lock()
	r.ring[r.reported%traceRing] = s
	r.reported++
	r.mu.Unlock()
	t.next.Report(rep)
}

// ingestTap wraps the Ingester handed to ServeUDPBatched.
type ingestTap struct {
	r    *loopRun
	next Ingester
}

func (t *ingestTap) Ingest(ts Time, frame []byte) error { return t.next.Ingest(ts, frame) }

func (t *ingestTap) IngestBatch(ts []Time, frames [][]byte) error {
	r := t.r
	r.ingestEntry = time.Now()
	if r.tracing.Load() {
		now := r.ingestEntry.UnixNano()
		for _, s := range ts {
			r.captureWait.add(float64(now-int64(s)) / 1e3)
		}
		r.batchSizes.add(float64(len(ts)))
	}
	return t.next.IngestBatch(ts, frames)
}

// mark is a snapshot of the run's counters at a stretch boundary.
type mark struct {
	at       time.Time
	cpu      float64
	sent     int64
	accepted int64
}

func (r *loopRun) mark() mark {
	return mark{at: time.Now(), cpu: cpuSeconds(), sent: r.sent.Load(), accepted: r.st.Samples.Load()}
}

// run plays warm-up episodes and then one stretch of episodes per entry
// of stretches; tracing is switched on for the stretches flagged true.
// It returns the counter marks at every boundary (len(stretches)+1) and
// leaves the system drained but still up.
func (r *loopRun) run(warm int, stretches []int, traced []bool) []mark {
	total := warm
	for _, n := range stretches {
		total += n
	}
	r.link.locked(func() {
		r.episodes = make([]episode, total)
		r.overrun = make([]bool, total)
		r.committed.Store(0)
		r.origin = time.Now().Add(2 * time.Millisecond)
	})
	done := make(chan struct{})
	go func() { r.generate(total*episodePeriod, true); close(done) }()

	boundary := func(ep int) time.Time {
		return r.origin.Add(time.Duration(ep*episodePeriod) * burstPeriod)
	}
	var marks []mark
	at := warm
	for i, n := range stretches {
		// The tracing flag flips mid-quiet-period: 14 ms after the last
		// elephant burst of the episode before.
		time.Sleep(time.Until(boundary(at)))
		r.tracing.Store(traced[i])
		marks = append(marks, r.mark())
		at += n
	}
	for end := boundary(at); time.Until(end) > 0; {
		time.Sleep(min(time.Until(end), 50*time.Millisecond))
		r.rss.add(rssNowMB())
	}
	marks = append(marks, r.mark())
	<-done

	// Drain: every datagram the kernel kept has been ingested once the
	// accepted count stops moving, and every report has been released
	// once the receiver has let go of as many as were accepted.
	for last, since := int64(-1), time.Now(); ; {
		time.Sleep(time.Millisecond)
		n := r.st.Samples.Load()
		released, complete := r.link.released()
		if n != last {
			last, since = n, time.Now()
		}
		if quiet := time.Since(since); (quiet > 20*time.Millisecond && released >= n && complete) || quiet > 2*time.Second {
			break
		}
	}
	r.link.locked(func() {
		for m := range r.episodes {
			r.episodes[m].skipped = r.overrun[m]
		}
	})
	return marks
}
