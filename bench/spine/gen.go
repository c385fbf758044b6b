package main

import (
	"encoding/binary"
	"math/rand"
)

// Everything the system under test receives is made here, from the
// seed alone: flow populations, their frames, sequence numbers that
// encode each flow's rate, and the order samples arrive in.

// Wire offsets into an untagged Ethernet/IPv4/TCP frame.
const (
	offDstMAC  = 0
	offSrcMAC  = 6
	offSrcIP   = 26
	offDstIP   = 30
	offSrcPort = 34
	offDstPort = 36
	offSeq     = 38
	frameLen   = 54

	batchSize = 32 // samples per IngestBatch call, and concurrent slots
	visitLen  = 16 // consecutive samples a slot plays of one flow
)

// flowSpec is one generated flow: its key, its labels, and the rate
// its sequence numbers encode.
type flowSpec struct {
	key        FlowKey
	srcMAC     MAC
	dstMAC     MAC
	bytesPerMs uint64
}

func (f flowSpec) rate() Rate { return Rate(f.bytesPerMs * 8000) }

// seqAt is the sequence number a flow sending bytesPerMs shows after
// elapsed ns, to microsecond resolution.
func seqAt(bytesPerMs uint64, elapsed int64) uint32 {
	return uint32(bytesPerMs * uint64(elapsed/1000) / 1000)
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// writeHeader stamps f's addressing into a header-only frame.
func writeHeader(frame []byte, f flowSpec) {
	copy(frame[offDstMAC:], f.dstMAC[:])
	copy(frame[offSrcMAC:], f.srcMAC[:])
	copy(frame[offSrcIP:], f.key.SrcIP[:])
	copy(frame[offDstIP:], f.key.DstIP[:])
	binary.BigEndian.PutUint16(frame[offSrcPort:], f.key.SrcPort)
	binary.BigEndian.PutUint16(frame[offDstPort:], f.key.DstPort)
}

func newFrame(f flowSpec, flags uint8) []byte {
	return headerFrame(f.key, f.srcMAC, f.dstMAC, flags)
}

// pairFlow is a flow between a host on the monitored switch and a
// remote host. Outbound flows leave on the uplink their tree selects
// (trees 0,1 -> port 2; trees 2,3 -> port 3); inbound flows leave on
// the local host's port (0 or 1).
func pairFlow(local, remote, tree int, outbound bool, sport, dport uint16, bytesPerMs uint64) flowSpec {
	src, dst := remote, local
	if outbound {
		src, dst = local, remote
	}
	return flowSpec{
		key:        FlowKey{SrcIP: hostIP(src), DstIP: hostIP(dst), SrcPort: sport, DstPort: dport, Proto: protoTCP},
		srcMAC:     shadowMAC(src, 0),
		dstMAC:     shadowMAC(dst, tree),
		bytesPerMs: bytesPerMs,
	}
}

// steadyFlow derives flow i of a steady population. i%4 picks the
// egress port, so the population spreads evenly over the four; rates
// are 1..20 Mb/s so no port ever nears the congestion threshold.
func steadyFlow(i uint32, salt uint64) flowSpec {
	port := int(i % 4)
	q := i / 4
	remote := 2 + int(q%14)
	q /= 14
	// q now numbers the flows of one (port, remote) pair; it goes whole
	// into the transport ports, and the port class into the destination
	// port, so the 5-tuple is unique per i.
	tree, local := int(q%2), int(q/2%2)
	sport := uint16(1024 + (uint64(q)+salt)%60000)
	dport := uint16(5001 + 4*(q/60000) + uint32(port))
	bytesPerMs := 125 * (1 + mix64(uint64(i)^salt)%20)
	switch port {
	case 0, 1:
		return pairFlow(port, remote, tree+2*local, false, sport, dport, bytesPerMs)
	default:
		return pairFlow(local, remote, tree+2*(port-2), true, sport, dport, bytesPerMs)
	}
}

// steadyGen plays a fixed population in burst-interleaved order: 32
// slots, each playing 16 consecutive samples of one flow before taking
// the next from a seeded permutation. Slot phases are staggered so
// every batch of 32 holds exactly two flow changes; with flows
// revisited far beyond the estimator's 200 µs gap, 1 sample in 16
// closes a rate window. Stream time advances 1 µs per sample.
type steadyGen struct {
	salt   uint64
	perm   []uint32
	cursor int
	now    int64 // stream time, ns
	slots  [batchSize]struct {
		frame []byte
		left  int
		spec  flowSpec
	}
}

func newSteadyGen(flows int, seed int64) *steadyGen {
	rng := rand.New(rand.NewSource(seed))
	g := &steadyGen{salt: rng.Uint64(), perm: make([]uint32, flows)}
	for i := range g.perm {
		g.perm[i] = uint32(i)
	}
	rng.Shuffle(flows, func(i, j int) { g.perm[i], g.perm[j] = g.perm[j], g.perm[i] })
	for s := range g.slots {
		g.slots[s].frame = newFrame(steadyFlow(0, g.salt), flagACK)
	}
	return g
}

func (g *steadyGen) flows() int { return len(g.perm) }

// fill emits every flow of the population once, in index order, so the
// table holds the whole population before measurement starts.
func (g *steadyGen) fill(emit func(ts []Time, frames [][]byte)) {
	ts := make([]Time, 0, batchSize)
	frames := make([][]byte, 0, batchSize)
	for i := 0; i < len(g.perm); i++ {
		s := &g.slots[len(ts)]
		f := steadyFlow(uint32(i), g.salt)
		writeHeader(s.frame, f)
		binary.BigEndian.PutUint32(s.frame[offSeq:], seqAt(f.bytesPerMs, g.now))
		ts = append(ts, Time(g.now))
		frames = append(frames, s.frame)
		g.now += 1000
		if len(ts) == batchSize || i == len(g.perm)-1 {
			emit(ts, frames)
			ts, frames = ts[:0], frames[:0]
		}
	}
	// Stagger: slot s changes flow on batches b with b%16 == s%16.
	for s := range g.slots {
		g.take(s)
		g.slots[s].left = s%visitLen + 1
	}
}

func (g *steadyGen) take(s int) {
	f := steadyFlow(g.perm[g.cursor], g.salt)
	if g.cursor++; g.cursor == len(g.perm) {
		g.cursor = 0
	}
	writeHeader(g.slots[s].frame, f)
	g.slots[s].spec = f
	g.slots[s].left = visitLen
}

// current lists the flows the slots are playing right now; each has
// had at least one sample of its present visit.
func (g *steadyGen) current() []flowSpec {
	out := make([]flowSpec, 0, batchSize)
	for s := range g.slots {
		out = append(out, g.slots[s].spec)
	}
	return out
}

// next fills one batch: one sample from each slot.
func (g *steadyGen) next(ts []Time, frames [][]byte) {
	for s := range g.slots {
		sl := &g.slots[s]
		if sl.left == 0 {
			g.take(s)
		}
		sl.left--
		binary.BigEndian.PutUint32(sl.frame[offSeq:], seqAt(sl.spec.bytesPerMs, g.now))
		ts[s] = Time(g.now)
		frames[s] = sl.frame
		g.now += 1000
	}
}

// Churn workload shape.
const (
	churnElephants   = 8
	churnElephantGap = 10 // every 10th sample belongs to an elephant
	churnHotPort     = 2
)

// churnGen is the hostile-input stream: 9 samples in 10 are SYNs of
// never-seen 5-tuples scanned from the two local hosts toward every
// other host on every tree; 1 in 10 belongs to one of 8 elephants whose
// sequence numbers encode a known rate. Elephants 0 and 1 (4.8 Gb/s
// each) share uplink port 2 and push it over the 90 % threshold; the
// other six run at 1 Gb/s on the remaining ports.
type churnGen struct {
	mult   uint64 // odd: scatters the scan counter over the transport ports
	salt   uint64 // scatters it over local hosts, trees and destinations
	n      int64  // samples emitted
	scans  uint64 // SYN flows emitted
	eleph  [churnElephants]flowSpec
	eframe [churnElephants][]byte
	frames [batchSize][]byte
	trees  int
	// idleSamples is the expiry horizon and expireEvery the expiry
	// period, both in samples (= µs of stream time): 200 ms and 50 ms at
	// the full-size 180k live flows.
	idleSamples int64
	expireEvery int64
}

// newChurnGen sizes the stream for about liveFlows resident flows at
// steady state: 9 in 10 samples insert one, and each lives one idle
// horizon.
func newChurnGen(seed int64, trees, liveFlows int) *churnGen {
	rng := rand.New(rand.NewSource(seed))
	idle := int64(liveFlows) * 10 / 9
	g := &churnGen{mult: rng.Uint64() | 1, salt: rng.Uint64(), trees: trees, idleSamples: idle, expireEvery: idle / 4}
	sport := uint16(20000 + rng.Intn(20000))
	g.eleph = [churnElephants]flowSpec{
		pairFlow(0, 4, 0, true, sport, 5001, 600_000),
		pairFlow(1, 8, 1, true, sport, 5001, 600_000),
		pairFlow(0, 12, 2, true, sport, 5002, 125_000),
		pairFlow(1, 6, 3, true, sport, 5002, 125_000),
		pairFlow(0, 5, 0, false, sport, 5003, 125_000),
		pairFlow(0, 9, 1, false, sport, 5004, 125_000),
		pairFlow(1, 13, 2, false, sport, 5003, 125_000),
		pairFlow(1, 7, 3, false, sport, 5004, 125_000),
	}
	for e, f := range g.eleph {
		g.eframe[e] = newFrame(f, flagACK)
	}
	for i := range g.frames {
		g.frames[i] = newFrame(g.eleph[0], flagSYN)
	}
	return g
}

// scanFlow is the j-th never-seen 5-tuple. The transport ports are
// j*mult on 32 bits, a bijection, so a tuple cannot repeat within 2^32
// scans. Local host, tree and destination come from a hash of j: taken
// from the product's upper bits they would follow j*mult/2^32 mod 1,
// which for some seeds alternates two egress ports strictly and for
// others stays on one for a dozen flows, and what a scan of one port's
// flows costs follows that layout in memory — churn's batch p90 was
// 73 µs on one seed and 150 µs on the next.
func (g *churnGen) scanFlow(j uint64) flowSpec {
	x := uint32(j) * uint32(g.mult)
	sport, dport := uint16(x), uint16(x>>16)
	h := mix64(j ^ g.salt)
	local := int(h & 1)
	tree := int((h >> 8) % uint64(g.trees))
	// 15 destinations: the other local host, then hosts 2..15.
	dst := 1 - local
	if d := int((h >> 32) % 15); d > 0 {
		dst = d + 1
	}
	return flowSpec{
		key:    FlowKey{SrcIP: hostIP(local), DstIP: hostIP(dst), SrcPort: sport, DstPort: dport, Proto: protoTCP},
		srcMAC: shadowMAC(local, 0),
		dstMAC: shadowMAC(dst, tree),
	}
}

func (g *churnGen) next(ts []Time, frames [][]byte) {
	for i := range ts {
		now := g.n * 1000
		var fr []byte
		if g.n%churnElephantGap == 0 {
			e := g.n / churnElephantGap % churnElephants
			fr = g.eframe[e]
			binary.BigEndian.PutUint32(fr[offSeq:], seqAt(g.eleph[e].bytesPerMs, now))
		} else {
			fr = g.frames[i]
			writeHeader(fr, g.scanFlow(g.scans))
			binary.BigEndian.PutUint32(fr[offSeq:], uint32(mix64(g.scans)))
			g.scans++
		}
		ts[i], frames[i] = Time(now), fr
		g.n++
	}
}

// liveAfterExpiry is the exact flow count after ExpireFlows(now, idle)
// runs at the time of the last emitted sample: the elephants plus every
// scan sample no older than the idle horizon.
func (g *churnGen) liveAfterExpiry() int {
	b := g.n - 1
	a := max(b-g.idleSamples, 0)
	elephantSamples := b/churnElephantGap - (a-1+churnElephantGap)/churnElephantGap + 1
	return int(b-a+1-elephantSamples) + churnElephants
}
