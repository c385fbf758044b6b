package core

// This file implements the sharded concurrent collector pipeline. The
// paper's collectors must keep up with the monitor port's line rate
// (§3.2: netmap delivers "all of the mirrored traffic" to one core);
// past one core's worth of traffic the only way forward is parallel
// ingest that computes exactly what the serial pipeline computes.
//
// The design splits the serial Collector's work into three roles:
//
//	dispatcher (caller's goroutine)
//	    timestamp monotonicity check, vantage-ring push, 5-tuple hash
//	    partition, and batched hand-off: samples are copied into
//	    per-shard batches (~64 samples) and published over bounded
//	    SPSC-style channels, amortizing channel synchronization over
//	    the whole batch.
//	shard workers (one goroutine per shard)
//	    each owns a private serial Collector — flow table, rate
//	    estimators, port mapping — processing only the flows that hash
//	    to it. A flow's entire sample subsequence lands on one shard in
//	    arrival order, so every per-flow quantity (rate, OOO count,
//	    stream bytes, boundary flags) is bit-identical to serial.
//	merger (one goroutine)
//	    per-sample records from the shards are re-sequenced by the
//	    dispatcher-assigned global sequence number and folded, in exact
//	    arrival order, into a lightweight cross-shard view: flow →
//	    (egress port, rate, last-seen). Link utilization, congestion
//	    thresholds, per-port event cooldown, and event emission run
//	    here — single-threaded, in serial order — so the event stream
//	    is semantically identical to the serial Collector's.
//
// The split keeps the expensive per-sample work (wire-format decode,
// flow-table access, estimator arithmetic) parallel while the cheap
// order-sensitive reduction (a slice update per sample, a per-port sum
// per rate update) stays sequential. Equivalence is enforced by the
// serial-equivalence oracle test (internal/lab), which replays identical
// deterministic streams through a 1-shard and an N-shard pipeline under
// the race detector and requires identical flow rates, utilizations,
// congestion events, and counters.

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"planck/internal/obs"
	"planck/internal/packet"
	"planck/internal/units"
)

// Hand-off defaults. 64-sample batches amortize the two channel
// operations per hand-off to a fraction of a nanosecond per sample; 8
// batches of queue give ~0.5K samples of slack per shard before the
// dispatcher blocks (or drops, in lossy mode).
const (
	DefaultShardBatch = 64
	DefaultShardQueue = 8
)

// maxShards bounds the shard count (shard indices are carried in
// per-record bytes and metric labels; 256 is far beyond any host).
const maxShards = 256

// ShardedConfig tunes a ShardedCollector. The embedded Config applies to
// every shard (Metrics and RingPackets are owned by the sharded pipeline
// itself: instruments register once, and the vantage ring is kept in
// global arrival order by the dispatcher).
type ShardedConfig struct {
	Config

	// Shards is the number of parallel shard workers (default
	// GOMAXPROCS).
	Shards int
	// Batch is the number of samples per hand-off batch (default 64).
	Batch int
	// Queue is the number of batches buffered per shard (default 8).
	Queue int
	// DropOnFull makes Ingest drop (and count) samples when a shard's
	// queue is full instead of blocking — the same load-shedding
	// semantics as the oversubscribed monitor port itself. Lossy mode
	// trades serial equivalence for bounded ingest latency; the default
	// is lossless back-pressure.
	DropOnFull bool
}

func (c *ShardedConfig) fillDefaults() {
	c.Config.fillDefaults()
	// The per-sample aggregation sink is a serial-collector seam: shard
	// workers would invoke it concurrently and out of stream order, so
	// the sharded pipeline never carries one. Fleet deployments shard
	// *across* collectors instead (one serial vantage per mirror port).
	c.Sink = nil
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards > maxShards {
		c.Shards = maxShards
	}
	if c.Batch <= 0 {
		c.Batch = DefaultShardBatch
	}
	if c.Queue <= 0 {
		c.Queue = DefaultShardQueue
	}
}

// sampleBatch is one dispatcher→shard hand-off unit: up to Batch frames
// packed back-to-back in one reusable arena.
type sampleBatch struct {
	n    int
	time []units.Time
	seq  []uint64 // global arrival sequence numbers
	hash []uint64 // dispatch flow hashes, shared with the shard's table probe (0 = none)
	off  []int32  // frame offsets into buf
	ln   []int32
	buf  []byte

	// barrier, when non-nil, marks a flush token instead of samples.
	barrier *flushToken
}

func newSampleBatch(batch int) *sampleBatch {
	return &sampleBatch{
		time: make([]units.Time, batch),
		seq:  make([]uint64, batch),
		hash: make([]uint64, batch),
		off:  make([]int32, batch),
		ln:   make([]int32, batch),
	}
}

func (b *sampleBatch) reset() {
	b.n = 0
	b.buf = b.buf[:0]
	b.barrier = nil
}

// Record kinds forwarded from shards to the merger.
const (
	recSkip = uint8(iota) // no flow touched (ARP, decode error, plain UDP)
	recFlow               // flow-table update
)

// outRec is one sample's result, forwarded shard→merger. It carries
// everything the merger needs to replay the serial collector's
// order-sensitive effects: flow identity and routing label, the rate
// estimate after this sample, and whether the estimator closed a window
// (the serial trigger for a congestion check).
type outRec struct {
	seq      uint64
	t        units.Time
	key      packet.FlowKey
	dstMAC   packet.MAC
	rate     units.Rate
	epoch    uint64 // routing epoch the sample resolved through
	id       int32
	port     int32
	kind     uint8
	boundary uint8 // 0 none, 1 FlowStart+1, 2 FlowEnd+1
	rateOk   bool
	updated  bool
}

// recBatch is one shard→merger hand-off unit.
type recBatch struct {
	shard   int
	recs    []outRec
	barrier *flushToken
}

// flushToken synchronizes Flush: the dispatcher hands one to every
// shard; each shard forwards it to the merger behind its last record;
// the merger closes done once all shards' tokens arrived and every
// record up to seqEnd has been applied.
type flushToken struct {
	seqEnd    uint64
	remaining int
	done      chan struct{}
}

// ShardedCollector is a concurrent collector pipeline that computes
// exactly what a serial Collector computes (see the file comment for the
// architecture and the equivalence argument).
//
// Threading contract: Ingest, Flush, Close, ExpireFlows, and
// SetPortMapper belong to one control goroutine (the sample source).
// Subscribe and SubscribeFlowBoundaries must be called before the first
// Ingest; callbacks fire on the merger goroutine, in serial stream
// order, and must not call back into the ShardedCollector. The
// monitoring read path (Stats counters, LinkUtilization, FlowsOnPort,
// FlowRate) is safe from any goroutine at any time and never takes a
// lock shared with the shard workers; Flow/Flows, which expose shard
// internals, require quiescence (call Flush first).
type ShardedCollector struct {
	cfg     ShardedConfig
	workers []*shardWorker

	in     []chan *sampleBatch
	freeIn []chan *sampleBatch
	out    chan *recBatch
	freeRe []chan *recBatch

	pending  []*sampleBatch // dispatcher's partially filled batches
	now      units.Time
	seq      uint64
	sweepSeq uint64 // seq at the last partial-batch sweep
	snap     int    // arena copy limit: headers + everything ingest reads
	ring     *Ring
	closed   bool

	// batchPool and recPool backstop the bounded free channels. The
	// channels satisfy the steady state; the pools absorb scheduling
	// bursts — when fewer cores than goroutines run, a producer can
	// drain its free channel dry (and a consumer can find its free
	// channel full) many times per timeslice, and without the backstop
	// every such moment allocated a fresh batch (the stray bytes/op the
	// sharded benchmarks used to leak).
	batchPool sync.Pool
	recPool   sync.Pool

	// resolver is the dispatcher's own pin on the versioned routing
	// plane, set when SetPortMapper is handed a RouteResolver; each
	// shard worker holds an independent Fork. routeEpoch is the epoch
	// the pipeline was last synced to at a batch boundary. epochRef,
	// when the resolver is an EpochSource, lets the per-Ingest epoch
	// check run as one inlined atomic load (see Collector.syncRoutes).
	resolver   RouteResolver
	epochRef   *atomic.Uint64
	routeEpoch uint64

	idAlloc atomic.Int32

	mg merger

	wgShards sync.WaitGroup
	mergerWG sync.WaitGroup

	// Per-shard hand-off instruments.
	dropped   []obs.Counter
	batches   []obs.Counter
	batchSize []*obs.Histogram
}

// shardWorker is one shard goroutine's state: a private serial Collector
// plus the record currently being filled (so the flow-boundary hook can
// annotate it from inside Ingest).
type shardWorker struct {
	sc  *ShardedCollector
	id  int
	col *Collector
	cur *outRec
	rb  *recBatch
}

// NewSharded builds and starts a sharded collector pipeline. The shard
// goroutines and the merger run until Close.
func NewSharded(cfg ShardedConfig) *ShardedCollector {
	cfg.fillDefaults()
	s := &ShardedCollector{cfg: cfg}
	n := cfg.Shards

	shardCfg := cfg.Config
	shardCfg.Metrics = nil   // instruments register once, below
	shardCfg.RingPackets = 0 // the dispatcher owns the ring

	s.workers = make([]*shardWorker, n)
	s.in = make([]chan *sampleBatch, n)
	s.freeIn = make([]chan *sampleBatch, n)
	s.freeRe = make([]chan *recBatch, n)
	s.out = make(chan *recBatch, cfg.Queue*n)
	s.pending = make([]*sampleBatch, n)
	s.dropped = make([]obs.Counter, n)
	s.batches = make([]obs.Counter, n)
	s.batchSize = make([]*obs.Histogram, n)

	for i := 0; i < n; i++ {
		w := &shardWorker{sc: s, id: i, col: New(shardCfg)}
		// The boundary hook annotates the in-flight record; the merger
		// re-fires boundaries in serial order.
		w.col.SubscribeFlowBoundaries(func(_ units.Time, _ packet.FlowKey, kind BoundaryKind) {
			if w.cur != nil {
				w.cur.boundary = uint8(kind) + 1
			}
		})
		s.workers[i] = w
		s.in[i] = make(chan *sampleBatch, cfg.Queue)
		s.freeIn[i] = make(chan *sampleBatch, cfg.Queue+2)
		s.freeRe[i] = make(chan *recBatch, cfg.Queue+2)
	}
	// Arena snap length: the shard's decode and estimator paths read
	// headers only (maximal IPv4 + TCP options), every payload-derived
	// quantity (PayloadLen, WireLen) coming from the IP TotalLen field —
	// so the dispatcher copies at most this many bytes per IPv4 frame
	// into the hand-off arena instead of a full MTU. With the UDP
	// sequence probe enabled the shard also reads 4 payload bytes at the
	// configured offset; extend the snap to cover them.
	s.snap = packet.EthernetHeaderLen + 60 + 60
	if cfg.UDPSeqEnabled {
		if u := packet.EthernetHeaderLen + 60 + packet.UDPHeaderLen + cfg.UDPSeqOffset + 4; u > s.snap {
			s.snap = u
		}
	}
	if cfg.RingPackets > 0 {
		s.ring = NewRing(cfg.RingPackets)
	}
	s.mg.init(s)
	if cfg.Metrics != nil {
		s.register(cfg.Metrics)
	}

	for i := 0; i < n; i++ {
		s.wgShards.Add(1)
		go s.shardLoop(i)
	}
	go func() {
		s.wgShards.Wait()
		close(s.out)
	}()
	s.mergerWG.Add(1)
	go func() {
		defer s.mergerWG.Done()
		s.mg.run()
	}()
	return s
}

// register exposes the pipeline's instruments: per-shard hand-off health
// (queue depth, drops, batches, batch sizes) plus aggregates under the
// serial collector's metric names, so dashboards work unchanged.
func (s *ShardedCollector) register(r *obs.Registry) {
	var swl []string
	if s.cfg.SwitchName != "" {
		swl = []string{obs.Label("switch", s.cfg.SwitchName)}
	}
	for i := range s.workers {
		labels := append(append([]string{}, swl...), obs.Label("shard", strconv.Itoa(i)))
		in := s.in[i]
		r.GaugeFunc("planck_shard_queue_depth", func() float64 { return float64(len(in)) }, labels...)
		r.MustRegister("planck_shard_dropped_total", &s.dropped[i], labels...)
		r.MustRegister("planck_shard_batches_total", &s.batches[i], labels...)
		s.batchSize[i] = r.Histogram("planck_shard_batch_samples", 1, labels...)
	}
	r.MustRegister("planck_collector_congestion_events_total", &s.mg.events, swl...)
	r.GaugeFunc("planck_collector_samples_total", func() float64 {
		var v int64
		for _, w := range s.workers {
			v += w.col.met.samples.Value()
		}
		return float64(v)
	}, swl...)
	r.GaugeFunc("planck_collector_flow_table_size", func() float64 {
		var v int64
		for _, w := range s.workers {
			v += w.col.met.flowTableSize.Value()
		}
		return float64(v)
	}, swl...)
}

// NumShards returns the shard count.
func (s *ShardedCollector) NumShards() int { return len(s.workers) }

// SetPortMapper installs (or, at a quiescent point, replaces) the
// routing state on every shard, re-resolving live flows exactly like the
// serial collector, and re-syncs the merger's port view.
func (s *ShardedCollector) SetPortMapper(m PortMapper) {
	s.Flush()
	rr, _ := m.(RouteResolver)
	s.resolver = rr
	s.epochRef = nil
	if rr != nil {
		s.routeEpoch = rr.Refresh()
		if es, ok := m.(EpochSource); ok {
			s.epochRef = es.EpochRef()
		}
	}
	for _, w := range s.workers {
		wm := m
		if rr != nil {
			// Views pin state per Refresh and are single-goroutine;
			// every shard worker resolves through its own fork.
			wm = rr.Fork()
		}
		w.col.SetPortMapper(wm)
	}
	s.resyncMergerPorts()
}

// resyncMergerPorts re-aligns the merger's lock-free read view with the
// shards' freshly re-resolved per-flow egress ports.
func (s *ShardedCollector) resyncMergerPorts() {
	v := &s.mg.view
	v.mu.Lock()
	for _, w := range s.workers {
		w.col.flows.Iterate(func(f *FlowState) {
			if f.id > 0 && int(f.id) < len(v.flows) && v.flows[f.id].live {
				s.mg.moveFlow(f.id, int32(f.outPort))
			}
		})
	}
	v.mu.Unlock()
}

// syncRoutes observes a routing-epoch change at a batch boundary: it
// drains the pipeline to a quiescent point, has every shard re-resolve
// its live flows at their last-sample times (identical to the serial
// collector's resync), and re-aligns the merger view. Between epoch
// changes it costs one atomic load and a compare. Per-sample
// attribution inside the shards still resolves by timestamp, so a
// commit landing mid-batch charges straddling samples to the epoch
// live at their timestamps in serial and sharded runs alike.
func (s *ShardedCollector) syncRoutes() {
	rr := s.resolver
	if rr == nil {
		return
	}
	// No-reroute fast path: one inlined atomic load of the publisher's
	// epoch counter (see Collector.syncRoutes for the ordering argument).
	if p := s.epochRef; p != nil && p.Load() == s.routeEpoch {
		return
	}
	e := rr.Refresh()
	if e == s.routeEpoch {
		return
	}
	s.routeEpoch = e
	s.Flush()
	for _, w := range s.workers {
		w.col.syncRoutes()
	}
	s.resyncMergerPorts()
}

// Subscribe registers fn for congestion events. Call before the first
// Ingest; fn runs on the merger goroutine in serial stream order.
func (s *ShardedCollector) Subscribe(fn func(ev CongestionEvent)) {
	s.mg.subs = append(s.mg.subs, fn)
}

// SubscribeFlowBoundaries registers fn for flow start/end observations.
// Call before the first Ingest; fn runs on the merger goroutine.
func (s *ShardedCollector) SubscribeFlowBoundaries(fn func(t units.Time, key packet.FlowKey, kind BoundaryKind)) {
	s.mg.boundary = append(s.mg.boundary, fn)
}

// flowShard hash-partitions a frame by its transport 5-tuple, peeking
// at the raw bytes (the full decode happens on the shard). The hash is
// the table hash — mixFlowHash over the packed tuple words, whose
// multiply-fold avalanches every input bit so flow populations with
// correlated low bytes (sequential ports, sequential addresses) spread
// across shards under the modulo — and it rides the batch to the
// shard, whose flow table probes with it instead of rehashing. Frames without a recognizable transport flow
// carry no flow-table state, so any stable assignment works; they go
// to shard 0 with hash 0 ("not precomputed").
func (s *ShardedCollector) flowShard(frame []byte) (int, uint64) {
	h, ok := flowHash(frame)
	if !ok {
		return 0, 0
	}
	return int(h % uint64(len(s.workers))), h
}

// Ingest accepts one sampled frame captured at time t, hash-partitions
// it, and hands it to its shard. Timestamps must be non-decreasing. The
// frame buffer is only borrowed for the call (it is copied into the
// batch arena). Decode failures are counted in Stats, not returned;
// only a timestamp regression is an error, mirroring the serial
// collector's contract at the pipeline boundary.
func (s *ShardedCollector) Ingest(t units.Time, frame []byte) error {
	if t < s.now {
		return fmt.Errorf("core: timestamp went backwards: %v after %v", t, s.now)
	}
	s.syncRoutes()
	s.ingestOne(t, frame)
	return nil
}

// IngestBatch accepts a batch of sampled frames, ts[i] stamping
// frames[i], dispatching each to its shard — the end-to-end batched
// sample path. It computes exactly what the equivalent Ingest loop
// computes; when the batch's timestamps are non-decreasing (the normal
// case) the per-frame regression check collapses to one scan. Frames
// are copied into batch arenas; the buffers are only borrowed.
func (s *ShardedCollector) IngestBatch(ts []units.Time, frames [][]byte) error {
	n := len(ts)
	if len(frames) < n {
		n = len(frames)
	}
	if n == 0 {
		return nil
	}
	s.syncRoutes()
	mono := ts[0] >= s.now
	for i := 1; mono && i < n; i++ {
		mono = ts[i] >= ts[i-1]
	}
	if mono {
		for i := 0; i < n; i++ {
			s.ingestOne(ts[i], frames[i])
		}
		return nil
	}
	var be *BatchError
	for i := 0; i < n; i++ {
		if err := s.Ingest(ts[i], frames[i]); err != nil {
			if be == nil {
				be = &BatchError{Index: i, Err: err}
			}
			be.Failed++
		}
	}
	if be != nil {
		return be
	}
	return nil
}

// ingestOne dispatches one timestamp-validated sample.
func (s *ShardedCollector) ingestOne(t units.Time, frame []byte) {
	s.now = t
	if s.ring != nil {
		s.ring.Push(t, frame)
	}
	// Sweep stale partial batches periodically. Without this, a shard
	// whose flows go quiet can hold an unsent partial batch forever; the
	// merger cannot advance past those sequence numbers, so its reorder
	// ring would grow without bound while the busy shards stream. The
	// sweep bounds any sample's time in a partial batch to one sweep
	// period (Shards×Batch samples), which also bounds event latency
	// under skewed traffic; its O(Shards) scan amortizes to O(1/Batch)
	// per sample.
	if s.seq-s.sweepSeq >= uint64(s.cfg.Batch*len(s.workers)) {
		s.sweep()
	}
	sh, h := s.flowShard(frame)
	// Snap the arena copy to the header-covering prefix (see s.snap).
	// Only IPv4 frames are safe to cut: for other ethertypes WireLen is
	// the capture length, which truncation would change. The ring above
	// always keeps the full frame.
	if len(frame) > s.snap && frame[12] == 0x08 && frame[13] == 0x00 {
		frame = frame[:s.snap]
	}
	b := s.pending[sh]
	if b == nil {
		b = s.getBatch(sh)
		s.pending[sh] = b
	}
	if b.n == s.cfg.Batch {
		n := b.n
		if s.cfg.DropOnFull {
			select {
			case s.in[sh] <- b:
				s.finishSend(sh, n)
				b = s.getBatch(sh)
				s.pending[sh] = b
			default:
				s.dropped[sh].Inc()
				return
			}
		} else {
			s.in[sh] <- b
			s.finishSend(sh, n)
			b = s.getBatch(sh)
			s.pending[sh] = b
		}
	}
	i := b.n
	b.time[i] = t
	b.seq[i] = s.seq
	b.hash[i] = h
	b.off[i] = int32(len(b.buf))
	b.ln[i] = int32(len(frame))
	b.buf = append(b.buf, frame...)
	b.n++
	s.seq++
}

// finishSend records hand-off telemetry for a batch of n samples. It
// takes the count, not the batch: once the batch is on the channel the
// shard owns it, and reading b.n here would race with the worker.
func (s *ShardedCollector) finishSend(sh, n int) {
	s.batches[sh].Inc()
	if h := s.batchSize[sh]; h != nil {
		h.Observe(int64(n))
	}
}

// sweep hands every non-empty partial batch to its shard. The sends
// block when a queue is full, even in lossy mode: these samples already
// carry sequence numbers, so dropping them would leave gaps the merger
// can never fill. The shard workers always drain, so the block is
// bounded by one queue's worth of processing.
func (s *ShardedCollector) sweep() {
	s.sweepSeq = s.seq
	for sh, b := range s.pending {
		if b != nil && b.n > 0 {
			n := b.n
			s.in[sh] <- b
			s.finishSend(sh, n)
			s.pending[sh] = nil
		}
	}
}

func (s *ShardedCollector) getBatch(sh int) *sampleBatch {
	select {
	case b := <-s.freeIn[sh]:
		b.reset()
		return b
	default:
	}
	if b, _ := s.batchPool.Get().(*sampleBatch); b != nil {
		b.reset()
		return b
	}
	return newSampleBatch(s.cfg.Batch)
}

// Flush drains the pipeline: every sample accepted before the call is
// fully processed — shard flow tables updated, merger view current, all
// events delivered — before Flush returns. Call it before reading
// quiescent-only state or at a batch boundary of the sample source.
func (s *ShardedCollector) Flush() {
	if s.closed {
		return
	}
	tok := &flushToken{seqEnd: s.seq, remaining: len(s.workers), done: make(chan struct{})}
	for sh, b := range s.pending {
		if b != nil && b.n > 0 {
			n := b.n
			s.in[sh] <- b
			s.finishSend(sh, n)
			s.pending[sh] = nil
		}
	}
	for sh := range s.workers {
		s.in[sh] <- &sampleBatch{barrier: tok}
	}
	<-tok.done
}

// Close flushes the pipeline and stops its goroutines. The collector
// must not be used after Close.
func (s *ShardedCollector) Close() {
	if s.closed {
		return
	}
	s.Flush()
	s.closed = true
	for sh := range s.in {
		close(s.in[sh])
	}
	s.mergerWG.Wait()
}

// shardLoop is one shard worker: it drains its input queue, runs every
// sample through its private serial Collector, and forwards per-sample
// records to the merger.
func (s *ShardedCollector) shardLoop(id int) {
	defer s.wgShards.Done()
	w := s.workers[id]
	for b := range s.in[id] {
		if b.barrier != nil {
			w.flushRecs()
			s.out <- &recBatch{shard: id, barrier: b.barrier}
			continue
		}
		for i := 0; i < b.n; i++ {
			rec := w.nextRec()
			w.process(b.time[i], b.buf[b.off[i]:b.off[i]+b.ln[i]], b.seq[i], b.hash[i], rec)
		}
		select {
		case s.freeIn[id] <- b:
		default:
			s.batchPool.Put(b)
		}
	}
	w.flushRecs()
}

func (w *shardWorker) nextRec() *outRec {
	if w.rb == nil {
		select {
		case rb := <-w.sc.freeRe[w.id]:
			rb.recs = rb.recs[:0]
			rb.barrier = nil
			w.rb = rb
		default:
			if rb, _ := w.sc.recPool.Get().(*recBatch); rb != nil {
				rb.shard = w.id // pooled batches cross shards
				rb.recs = rb.recs[:0]
				rb.barrier = nil
				w.rb = rb
			} else {
				w.rb = &recBatch{shard: w.id, recs: make([]outRec, 0, w.sc.cfg.Batch)}
			}
		}
	}
	w.rb.recs = append(w.rb.recs, outRec{})
	return &w.rb.recs[len(w.rb.recs)-1]
}

func (w *shardWorker) flushRecs() {
	if w.rb != nil && len(w.rb.recs) > 0 {
		w.sc.out <- w.rb
		w.rb = nil
	}
}

// process runs one sample through the shard's serial Collector and
// captures its observable effects in rec. h is the dispatcher's flow
// hash, reused by the collector's table probe (0 = none).
func (w *shardWorker) process(t units.Time, frame []byte, seq, h uint64, rec *outRec) {
	rec.seq = seq
	rec.t = t
	rec.kind = recSkip
	rec.boundary = 0
	w.cur = rec
	c := w.col
	ruBefore := c.met.rateUpdates.Value()
	err := c.ingestHashed(t, frame, h)
	w.cur = nil
	if err != nil {
		return // decode failure: counted by the shard collector
	}
	d := &c.dec
	if !d.Has(packet.LayerTCP) && !(c.cfg.UDPSeqEnabled && d.Has(packet.LayerUDP)) {
		return
	}
	key, ok := d.Flow()
	if !ok {
		return
	}
	if h == 0 {
		h = HashFlowKey(key)
	}
	f := c.flows.Lookup(h, key)
	if f == nil {
		return // e.g. UDP datagram too short to carry the counter
	}
	if f.id == 0 {
		f.id = w.sc.idAlloc.Add(1)
	}
	rec.kind = recFlow
	rec.id = f.id
	rec.key = key
	rec.dstMAC = f.DstMAC
	rec.port = int32(f.outPort)
	rec.epoch = f.routeEpoch
	rec.rate, rec.rateOk = f.Rate()
	rec.updated = c.met.rateUpdates.Value() > ruBefore
	if len(w.rb.recs) == cap(w.rb.recs) {
		w.flushRecs()
	}
}

// Stats returns the merged counters across shards plus the merger's
// event count. Counter fields are safe to read live (they are atomic
// sums); Flows and OutOfOrder walk shard flow tables and are only
// well-defined at quiescence (after Flush).
func (s *ShardedCollector) Stats() Stats {
	var st Stats
	for _, w := range s.workers {
		ws := w.col.Stats()
		st.Samples += ws.Samples
		st.DecodeErrors += ws.DecodeErrors
		st.NonTCP += ws.NonTCP
		st.Flows += ws.Flows
		st.RateUpdates += ws.RateUpdates
		st.OutOfOrder += ws.OutOfOrder
		st.UnmappedOutput += ws.UnmappedOutput
	}
	st.EventsEmitted = s.mg.events.Value()
	return st
}

// Shard returns shard i's underlying serial Collector for inspection.
// Only meaningful at quiescence (after Flush).
func (s *ShardedCollector) Shard(i int) *Collector { return s.workers[i].col }

// Dropped returns the total samples shed across shards (always 0 unless
// DropOnFull is set).
func (s *ShardedCollector) Dropped() int64 {
	var n int64
	for i := range s.dropped {
		n += s.dropped[i].Value()
	}
	return n
}

// FlowRate answers the per-flow query API from the merger's view; safe
// from any goroutine (values are as of the last merged sample).
func (s *ShardedCollector) FlowRate(k packet.FlowKey) (units.Rate, bool) {
	v := &s.mg.view
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.byKey[k]
	if !ok {
		return 0, false
	}
	f := &v.flows[id]
	if !f.rateOk {
		return 0, false
	}
	return f.rate, true
}

// Flow returns the full flow record for k, or nil. Quiescent-only; the
// record is recycled when the flow expires, so do not retain the
// pointer across ExpireFlows.
func (s *ShardedCollector) Flow(k packet.FlowKey) *FlowState {
	h := HashFlowKey(k)
	for _, w := range s.workers {
		if f := w.col.flows.Lookup(h, k); f != nil {
			return f
		}
	}
	return nil
}

// Flows iterates over all flow records across shards. Quiescent-only.
func (s *ShardedCollector) Flows(fn func(f *FlowState)) {
	for _, w := range s.workers {
		w.col.Flows(fn)
	}
}

// LinkUtilization sums the fresh flow-rate estimates mapped to egress
// port p across every shard, from the merger's view; safe from any
// goroutine.
func (s *ShardedCollector) LinkUtilization(p int) units.Rate {
	v := &s.mg.view
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.linkUtilization(p, s.cfg.FlowFreshness)
}

// FlowsOnPort snapshots the fresh flows mapped to egress port p; safe
// from any goroutine.
func (s *ShardedCollector) FlowsOnPort(p int) []FlowInfo {
	v := &s.mg.view
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.flowsOnPort(p, s.cfg.FlowFreshness)
}

// CooldownSnapshot returns the merger's last congestion-event time per
// port, omitting ports that never fired; safe from any goroutine. The
// merger writes these under the view lock, so a snapshot taken after a
// Flush reflects every accepted sample.
func (s *ShardedCollector) CooldownSnapshot() map[int]units.Time {
	return s.CooldownSnapshotInto(nil)
}

// CooldownSnapshotInto is CooldownSnapshot writing into dst (cleared
// first), so periodic snapshotters stop allocating a map per call. A
// nil dst allocates one. Returns dst.
func (s *ShardedCollector) CooldownSnapshotInto(dst map[int]units.Time) map[int]units.Time {
	v := &s.mg.view
	v.mu.RLock()
	defer v.mu.RUnlock()
	if dst == nil {
		dst = make(map[int]units.Time, len(s.mg.lastEvent))
	} else {
		clear(dst)
	}
	for p, t := range s.mg.lastEvent {
		if t > -1<<62 {
			dst[p] = t
		}
	}
	return dst
}

// RestoreCooldowns seeds the merger's per-port event cooldowns from a
// snapshot of a previous incarnation, taking the later time per port
// (see Collector.RestoreCooldowns). Call it from the control goroutine
// before the first Ingest, or after a Flush.
func (s *ShardedCollector) RestoreCooldowns(snap map[int]units.Time) {
	v := &s.mg.view
	v.mu.Lock()
	defer v.mu.Unlock()
	for p, t := range snap {
		if p >= 0 && p < len(s.mg.lastEvent) && t > s.mg.lastEvent[p] {
			s.mg.lastEvent[p] = t
		}
	}
}

// ExpireFlows drops flow records idle longer than idle from every shard
// and the merger view, returning how many were removed. It implies a
// Flush; call from the control goroutine.
func (s *ShardedCollector) ExpireFlows(now units.Time, idle units.Duration) int {
	s.Flush()
	v := &s.mg.view
	v.mu.Lock()
	defer v.mu.Unlock()
	dropMerged := func(f *FlowState) {
		if f.id > 0 {
			s.mg.dropFlow(f.id)
		}
	}
	n := 0
	for _, w := range s.workers {
		n += w.col.expire(now, idle, dropMerged)
	}
	return n
}

// DumpPcap writes the vantage-point ring to w as a pcap file (§6.1).
// The ring is owned by the dispatcher, in global arrival order; call
// from the control goroutine.
func (s *ShardedCollector) DumpPcap(w io.Writer) error {
	if s.ring == nil {
		return fmt.Errorf("core: sharded collector %q has no sample ring", s.cfg.SwitchName)
	}
	return s.ring.WritePcap(w)
}

// RingBuffer exposes the vantage-point buffer (nil when disabled).
func (s *ShardedCollector) RingBuffer() *Ring { return s.ring }
