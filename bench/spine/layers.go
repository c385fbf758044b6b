package main

import (
	"encoding/binary"
	"sort"
	"time"
)

// Standalone layer passes for the in-memory workloads, traced runs
// only: each times one layer's public function alone, over frames a
// second generator with the same seed produces — the frames the
// collector saw, in the order it saw them. The sum of the passes is
// compared with what IngestBatch costs as a whole
// (steady.closure_ratio).

type layerTimes struct {
	decodeNs, lookupNs, insertNs, estimatorNs, linkUtilNs, resolveNs float64
}

// timeLoop runs pass (which performs ops operations) until 20 ms have
// been spent and at least three times, and returns the median ns/op.
// prep, when set, runs untimed before each pass.
func timeLoop(ops int, prep, pass func()) float64 {
	var runs []float64
	for begin := time.Now(); len(runs) < 3 || time.Since(begin) < 20*time.Millisecond; {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		pass()
		runs = append(runs, float64(time.Since(t0))/float64(ops))
	}
	sort.Float64s(runs)
	return quantile(runs, 0.5)
}

// replay is a stretch of the workload's stream held still: frames
// copied out of the generator's buffers, and what the decoder reads
// from each.
type replay struct {
	ts     []Time
	frames [][]byte
	keys   []FlowKey
	macs   []MAC
	hashes []uint64
	addrs  []uint64 // src‖dst address word as the table compares it
	seqs   []uint32
}

func (w *inmem) layers(tr *tracer, flows int, seed int64) layerTimes {
	var lt layerTimes
	root := tr.begin("layers", -1, time.Now())
	timed := func(name string, ops int, prep, pass func()) float64 {
		t0 := time.Now()
		ns := timeLoop(ops, prep, pass)
		tr.span(name, root, t0, time.Now())
		return ns
	}

	// LinkUtilization on the workload's own collector, at the table it
	// ended the window with, the data ports in turn. It runs first: the
	// passes below allocate a second population, which would push the
	// collector's records out of the shared last-level cache.
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond && calls < 1<<16 {
		for range 16 { // amortise the clock read over cheap calls
			w.col.LinkUtilization(calls % 4)
			calls++
		}
	}
	lt.linkUtilNs = float64(time.Since(t0)) / float64(calls)
	tr.span("core.link_util", root, t0, time.Now())

	// The population the table holds, and a generator replaying the
	// stream that follows the fill.
	var population []FlowKey
	var gen stream
	if w.churn != nil {
		g := newChurnGen(seed, w.fab.numTrees(), flows)
		gen = g
		for _, e := range g.eleph {
			population = append(population, e.key)
		}
		for j := 0; len(population) < flows; j++ {
			population = append(population, g.scanFlow(uint64(j)).key)
		}
	} else {
		g := newSteadyGen(flows, seed)
		g.fill(func([]Time, [][]byte) {})
		gen = g
		population = make([]FlowKey, flows)
		for i := range population {
			population[i] = steadyFlow(uint32(i), g.salt).key
		}
	}
	batches := min(max(flows/batchSize, 64), 4096)
	var rp replay
	var dec Decoded
	ts, frames := make([]Time, batchSize), make([][]byte, batchSize)
	backing := make([]byte, 0, batches*batchSize*frameLen)
	for b := 0; b < batches; b++ {
		gen.next(ts, frames)
		for i, f := range frames {
			backing = append(backing, f...)
			f = backing[len(backing)-frameLen:]
			if !dec.DecodeTCPFast(f) {
				panic("generated frame left the decoder's fast path")
			}
			k, _ := dec.Flow()
			rp.ts = append(rp.ts, ts[i])
			rp.frames = append(rp.frames, f)
			rp.keys = append(rp.keys, k)
			rp.macs = append(rp.macs, dec.Eth.Dst)
			rp.hashes = append(rp.hashes, hashKey(k))
			rp.addrs = append(rp.addrs, binary.NativeEndian.Uint64(f[offSrcIP:]))
			rp.seqs = append(rp.seqs, dec.TCP.Seq)
		}
	}
	n := len(rp.frames)

	lt.decodeNs = timed("packet.decode", n, nil, func() {
		for _, f := range rp.frames {
			if !dec.DecodeTCPFast(f) {
				_ = dec.Decode(f)
			}
		}
	})

	// Inserts: the whole population into an empty table, growth and
	// rehash included. The last table built serves the lookup pass.
	popHashes := make([]uint64, len(population))
	for i, k := range population {
		popHashes[i] = hashKey(k)
	}
	var tbl *FlowTable
	lt.insertNs = timed("core.table_insert", len(population), func() { tbl = new(FlowTable) }, func() {
		for i, k := range population {
			tbl.GetOrInsert(popHashes[i], k)
		}
	})

	hits := 0
	lt.lookupNs = timed("core.table_lookup", n, nil, func() {
		hits = 0
		for i, k := range rp.keys {
			if tbl.LookupScalar(rp.hashes[i], rp.addrs[i], k.SrcPort, k.DstPort, k.Proto) != nil {
				hits++
			}
		}
	})
	if hits != n {
		w.failed++
		w.note("standalone table resolved %d of %d resident keys", hits, n)
	}

	ests := make([]RateEstimator, min(len(population), 1<<16))
	proto := newEstimator()
	reset := func() {
		for i := range ests {
			ests[i] = *proto
		}
	}
	lt.estimatorNs = timed("core.estimator", n, reset, func() {
		for i, h := range rp.hashes {
			ests[h%uint64(len(ests))].Observe(rp.ts[i], rp.seqs[i])
		}
	})

	view := w.fab.view()
	lt.resolveNs = timed("routing.resolve", n, nil, func() {
		for i, k := range rp.keys {
			view.ResolveOutput(rp.ts[i], k, rp.macs[i])
		}
	})

	tr.end(root, time.Now())
	return lt
}
