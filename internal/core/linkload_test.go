package core

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"planck/internal/packet"
	"planck/internal/units"
)

// The collector keeps each link's utilisation as a running sum, finds
// idle flows at the head of a recency list and builds FlowsOnPort from
// a per-port bitmap of fresh slots. This file holds the scan it replaced as the
// oracle: a model that knows only which samples it fed and what port the
// collector resolved each flow to, keeps its own per-port slices with
// the old append / search-and-swap-remove code, and answers both queries
// by scanning them. A scripted stream drives collector and model through
// every event that can change a link's sum, and after every step both
// queries must agree on every port — values and order.

// loadModel is the reference implementation.
type loadModel struct {
	fresh units.Duration
	now   units.Time
	tick  uint64 // one per sample that reached a flow: recency order
	flows map[packet.FlowKey]*modelFlow
	ports [][]packet.FlowKey // shadow port slices, old list discipline
}

type modelFlow struct {
	lastSeen units.Time
	touched  uint64
	port     int
}

func scanRemove(s []packet.FlowKey, k packet.FlowKey) []packet.FlowKey {
	for i, x := range s {
		if x == k {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

func (m *loadModel) move(k packet.FlowKey, mf *modelFlow, port int) {
	if mf.port >= 0 && mf.port < len(m.ports) {
		m.ports[mf.port] = scanRemove(m.ports[mf.port], k)
	}
	mf.port = port
	if port >= 0 && port < len(m.ports) {
		m.ports[port] = append(m.ports[port], k)
	}
}

// sync folds the collector's per-flow answers (which flows exist, where
// each one resolved) into the model, in table order — the order a bulk
// re-resolve moves flows in. sampled, when non-nil, is the flow the step
// fed a sample to.
func (m *loadModel) sync(t *testing.T, c *Collector, sampled *packet.FlowKey) {
	t.Helper()
	seen := 0
	c.Flows(func(f *FlowState) {
		seen++
		mf := m.flows[f.Key]
		if mf == nil {
			mf = &modelFlow{port: -1}
			m.flows[f.Key] = mf
		}
		if f.OutPort() != mf.port {
			m.move(f.Key, mf, f.OutPort())
		}
	})
	if seen != len(m.flows) {
		t.Fatalf("collector holds %d flows, model %d", seen, len(m.flows))
	}
	if sampled != nil {
		if mf := m.flows[*sampled]; mf != nil {
			m.tick++
			mf.lastSeen, mf.touched = m.now, m.tick
		}
	}
}

// expire drops the model's idle flows oldest sample first, which is the
// order the collector's recency list gives them up in.
func (m *loadModel) expire(now units.Time, idle units.Duration) int {
	var gone []packet.FlowKey
	for k, mf := range m.flows {
		if now.Sub(mf.lastSeen) > idle {
			gone = append(gone, k)
		}
	}
	sort.Slice(gone, func(i, j int) bool { return m.flows[gone[i]].touched < m.flows[gone[j]].touched })
	for _, k := range gone {
		m.move(k, m.flows[k], -1)
		delete(m.flows, k)
	}
	return len(gone)
}

// linkUtilization and flowsOnPort are the scans Collector.LinkUtilization
// and Collector.FlowsOnPort used to be, over the shadow slices.
func (m *loadModel) linkUtilization(c *Collector, p int) units.Rate {
	if p < 0 || p >= len(m.ports) {
		return 0
	}
	var util units.Rate
	for _, k := range m.ports[p] {
		if m.now.Sub(m.flows[k].lastSeen) > m.fresh {
			continue
		}
		if r, ok := c.Flow(k).Rate(); ok {
			util += r
		}
	}
	return util
}

func (m *loadModel) flowsOnPort(c *Collector, p int) []FlowInfo {
	if p < 0 || p >= len(m.ports) {
		return nil
	}
	out := make([]FlowInfo, 0, len(m.ports[p]))
	for _, k := range m.ports[p] {
		if m.now.Sub(m.flows[k].lastSeen) > m.fresh {
			continue
		}
		f := c.Flow(k)
		r, _ := f.Rate()
		out = append(out, FlowInfo{Key: f.Key, DstMAC: f.DstMAC, Rate: r, OutPort: p})
	}
	return out
}

// compare checks both queries on every port, and one port off each end.
func (m *loadModel) compare(t *testing.T, c *Collector, step int, what string) {
	t.Helper()
	if c.now != m.now {
		t.Fatalf("step %d (%s): collector clock %v, model %v", step, what, c.now, m.now)
	}
	for p := -1; p <= len(m.ports); p++ {
		if got, want := c.LinkUtilization(p), m.linkUtilization(c, p); got != want {
			t.Fatalf("step %d (%s): port %d utilisation %v, scan says %v", step, what, p, got, want)
		}
		got, want := c.FlowsOnPort(p), m.flowsOnPort(c, p)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("step %d (%s): port %d lists %d flows (nil %v), scan %d (nil %v)",
				step, what, p, len(got), got == nil, len(want), want == nil)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d (%s): port %d flow %d is %+v, scan says %+v", step, what, p, i, got[i], want[i])
			}
		}
	}
	checkLinkLoadInvariants(t, c)
}

// checkLinkLoadInvariants verifies the structures behind the O(1)
// answers: one list of all live flows in LastSeen order, the fresh
// cursor on the oldest fresh flow, each flow's contribution what its
// state calls for, each port sum the total of its flows' contributions,
// each port slot pointing back at its flow, and each port's freshness
// bitmap set on exactly its fresh slots. LinkUtilizationAt, asked about
// a later time, must answer what a scan of the port's list at that time
// adds up.
func checkLinkLoadInvariants(t *testing.T, c *Collector) {
	t.Helper()
	n, listed := 0, 0
	sums := make([]units.Rate, len(c.portUtil))
	var prev, firstFresh *FlowState
	for f := c.oldest(); f != nil; prev, f = f, c.flows.at(f.next) {
		n++
		if f.self == 0 || c.flows.record(f.self) != f || c.flows.at(f.prev) != prev {
			t.Fatalf("recency list broken at node %d (self %#x, prev %#x)", n, f.self, f.prev)
		}
		if prev != nil && f.LastSeen < prev.LastSeen {
			t.Fatalf("recency list out of order at node %d: %v after %v", n, f.LastSeen, prev.LastSeen)
		}
		isFresh := c.now.Sub(f.LastSeen) <= c.cfg.FlowFreshness
		if isFresh && firstFresh == nil {
			firstFresh = f
		}
		onList := f.outPort >= 0 && int(f.outPort) < len(c.portFlows)
		if onList != (f.portSlot != 0) {
			t.Fatalf("flow %v on port %d has slot %d", f.Key, f.outPort, f.portSlot)
		}
		var want units.Rate
		if onList {
			listed++
			if c.portFlows[f.outPort][f.portSlot-1] != f.self {
				t.Fatalf("flow %v: port %d slot %d holds another flow", f.Key, f.outPort, f.portSlot)
			}
			if r, ok := f.Rate(); ok && isFresh {
				want = r
			}
			sums[f.outPort] += f.counted
		}
		if f.counted != want {
			t.Fatalf("flow %v counts for %v, should for %v", f.Key, f.counted, want)
		}
	}
	if prev != c.newest || n != c.flows.Len() {
		t.Fatalf("recency list holds %d flows ending at %p; table holds %d, newest is %p", n, prev, c.flows.Len(), c.newest)
	}
	if c.flows.at(c.fresh) != firstFresh {
		t.Fatalf("fresh cursor at %#x, oldest fresh flow is %p", c.fresh, firstFresh)
	}
	if firstFresh == nil && c.freshSeen != never || firstFresh != nil && c.freshSeen > firstFresh.LastSeen {
		t.Fatalf("fresh bound %v, oldest fresh flow %p", c.freshSeen, firstFresh)
	}
	for p, l := range c.portFlows {
		listed -= len(l)
		if c.portUtil[p] != sums[p] {
			t.Fatalf("port %d sum %v, its flows count for %v", p, c.portUtil[p], sums[p])
		}
	}
	if listed != 0 {
		t.Fatalf("port lists hold %d entries more or fewer than there are mapped flows", -listed)
	}
	fr := c.cfg.FlowFreshness
	for _, d := range []units.Duration{0, fr / 2, fr + 1, 10 * fr} {
		at := c.now.Add(d)
		for p, l := range c.portFlows {
			var want units.Rate
			for _, ref := range l {
				f := c.flows.record(ref)
				if r, ok := f.Rate(); ok && at.Sub(f.LastSeen) <= fr {
					want += r
				}
			}
			if got := c.LinkUtilizationAt(p, at); got != want {
				t.Fatalf("port %d at now+%v: utilisation %v, scan says %v", p, d, got, want)
			}
		}
	}
	for p, l := range c.portFlows {
		fresh := c.portFresh[p]
		if len(fresh)*64 < len(l) {
			t.Fatalf("port %d: %d bitmap words for %d slots", p, len(fresh), len(l))
		}
		for i := 0; i < len(fresh)*64; i++ {
			set := fresh[i>>6]&(1<<(i&63)) != 0
			if i >= len(l) {
				if set {
					t.Fatalf("port %d: freshness bit %d set past the list's %d slots", p, i, len(l))
				}
				continue
			}
			f := c.flows.record(l[i])
			if isFresh := c.now.Sub(f.LastSeen) <= c.cfg.FlowFreshness; set != isFresh {
				t.Fatalf("port %d slot %d: freshness bit %v, flow %v last seen %v before now", p, i, set, f.Key, c.now.Sub(f.LastSeen))
			}
		}
	}
}

// fakeRoutes is a minimal versioned routing plane: a history of label
// tables, each live from its activation time, published under an epoch
// counter the collector polls.
type fakeRoutes struct {
	epoch atomic.Uint64
	hist  []fakeEpoch
}

type fakeEpoch struct {
	at    units.Time
	epoch uint64
	ports staticMapper
}

func (r *fakeRoutes) commit(at units.Time, ports staticMapper) {
	e := uint64(len(r.hist) + 1)
	r.hist = append(r.hist, fakeEpoch{at: at, epoch: e, ports: ports})
	r.epoch.Store(e)
}

// fakeView pins a prefix of the history at Refresh, as routing.View does.
type fakeView struct {
	r      *fakeRoutes
	pinned int
}

func (v *fakeView) at(t units.Time) *fakeEpoch {
	e := &v.r.hist[0]
	for i := 1; i < v.pinned; i++ {
		if v.r.hist[i].at <= t {
			e = &v.r.hist[i]
		}
	}
	return e
}

func (v *fakeView) Refresh() uint64 {
	v.pinned = len(v.r.hist)
	return v.r.hist[v.pinned-1].epoch
}
func (v *fakeView) ResolveOutput(t units.Time, _ packet.FlowKey, dst packet.MAC) (int, uint64, bool) {
	e := v.at(t)
	p, ok := e.ports.port(dst)
	return p, e.epoch, ok
}
func (v *fakeView) EpochRef() *atomic.Uint64 { return &v.r.epoch }

// script reads a test's byte string; an exhausted script yields zeros.
type script struct {
	b []byte
	i int
}

func (s *script) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	v := s.b[s.i]
	s.i++
	return int(v)
}

// runLinkLoadScript interprets sc as a stream of collector operations and
// checks collector against model after each one.
func runLinkLoadScript(t *testing.T, sc []byte) {
	const (
		numPorts = 4
		tcpFlows = 24
		udpFlows = 4
	)
	labels := []packet.MAC{macB, {0x02, 1, 0, 0, 0, 2}, {0x02, 2, 0, 0, 0, 2}, {0x02, 3, 0, 0, 0, 2}}
	l := func(i int) uint64 { return labels[i].U64() }
	// Label tables: ports move, a route is withdrawn, one label maps
	// past the switch's port count, and one table maps nothing.
	tables := []staticMapper{
		{l(0): 2, l(1): 3, l(2): 1, l(3): 7},
		{l(0): 3, l(1): 3, l(3): 0},
		{l(0): 2, l(1): 0, l(2): 2},
		{},
	}
	// Gaps between samples: mostly inside an estimation window, some
	// closing one (≥ MinGap 200 µs, or MaxBurst 700 µs in sum), some past
	// FlowFreshness (5 ms).
	gaps := []units.Duration{0, units.Microsecond, 20 * units.Microsecond, 90 * units.Microsecond,
		250 * units.Microsecond, 250 * units.Microsecond, 800 * units.Microsecond, 6 * units.Millisecond}
	jumps := []units.Duration{300 * units.Microsecond, 3 * units.Millisecond, 5 * units.Millisecond,
		5*units.Millisecond + 1, 7 * units.Millisecond, 30 * units.Millisecond}
	idles := []units.Duration{units.Millisecond, 4 * units.Millisecond, 5 * units.Millisecond,
		8 * units.Millisecond, 25 * units.Millisecond}

	s := &script{b: sc}
	// A link rate low enough that the scripted flows cross 90 % of it, so
	// congestion events fire and carry FlowsOnPort snapshots.
	c := New(Config{SwitchName: "sw0", NumPorts: numPorts, LinkRate: 40 * units.Mbps, UDPSeqEnabled: true})
	var lastEv *CongestionEvent
	c.Subscribe(func(ev CongestionEvent) { lastEv = &ev })

	routes := &fakeRoutes{}
	routes.commit(0, tables[0])
	versioned := s.next()%2 == 1
	install := func(table int) {
		if versioned {
			c.SetPortMapper(&fakeView{r: routes})
		} else {
			c.SetPortMapper(tables[table])
		}
	}
	install(0)

	m := &loadModel{fresh: c.cfg.FlowFreshness, flows: map[packet.FlowKey]*modelFlow{}, ports: make([][]packet.FlowKey, numPorts)}
	tcpSeq := make([]uint32, tcpFlows)
	udpSeq := make([]uint32, udpFlows)
	arp := packet.BuildARP(nil, packet.ARPSpec{
		SrcMAC: macA, DstMAC: macB, Op: packet.ARPRequest,
		SenderMAC: macA, SenderIP: ipA, TargetIP: ipB,
	})
	var frame []byte

	// ingest feeds one frame dt after the last and advances the model's
	// clock: every accepted timestamp moves it, whatever the frame is.
	ingest := func(dt units.Duration, fr []byte) {
		m.now = m.now.Add(dt)
		_ = c.Ingest(m.now, fr) // garbage frames fail to decode, by design
	}

	for step := 0; s.i < len(s.b); step++ {
		lastEv = nil
		var sampled *packet.FlowKey
		what := ""
		switch op := s.next() % 16; {
		case op < 9:
			what = "tcp sample"
			i := s.next() % tcpFlows
			key := packet.FlowKey{SrcIP: ipA, DstIP: ipB, SrcPort: uint16(1000 + i), DstPort: 2000, Proto: packet.IPProtocolTCP}
			arg := s.next()
			seq := tcpSeq[i] - 2920 // a regression: closes no window, still a sample
			if adv := arg >> 6; adv < 3 {
				tcpSeq[i] += uint32(1460 * (1 + adv))
				seq = tcpSeq[i]
			}
			frame = packet.BuildTCP(frame[:0], packet.TCPSpec{
				SrcMAC: macA, DstMAC: labels[arg>>3%len(labels)], SrcIP: ipA, DstIP: ipB,
				SrcPort: key.SrcPort, DstPort: key.DstPort, Seq: seq,
				Flags: packet.TCPAck, PayloadLen: 1460,
			})
			ingest(gaps[arg%len(gaps)], frame)
			sampled = &key
		case op == 9:
			what = "udp-seq sample"
			i := s.next() % udpFlows
			key := packet.FlowKey{SrcIP: ipA, DstIP: ipB, SrcPort: uint16(3000 + i), DstPort: 4000, Proto: packet.IPProtocolUDP}
			arg := s.next()
			udpSeq[i] += uint32(1 + arg>>6)
			frame = packet.BuildUDP(frame[:0], packet.UDPSpec{
				SrcMAC: macA, DstMAC: labels[arg>>3%len(labels)], SrcIP: ipA, DstIP: ipB,
				SrcPort: key.SrcPort, DstPort: key.DstPort, PayloadLen: 1200, Seq: udpSeq[i], HasSeq: true,
			})
			ingest(gaps[arg%len(gaps)], frame)
			sampled = &key
		case op == 10:
			what = "time jump on an ARP frame"
			ingest(jumps[s.next()%len(jumps)], arp)
		case op == 11:
			what = "time jump on a frame that reaches no flow"
			switch arg := s.next(); arg % 3 {
			case 0: // undecodable
				ingest(jumps[arg>>2%len(jumps)], []byte{0x08, 0x00, 0x45})
			case 1: // UDP too short to carry the counter
				frame = packet.BuildUDP(frame[:0], packet.UDPSpec{
					SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, SrcPort: 9, DstPort: 9, PayloadLen: 2,
				})
				ingest(jumps[arg>>2%len(jumps)], frame)
			default: // a timestamp behind the clock: refused, nothing moves
				if err := c.Ingest(m.now-1, arp); err == nil {
					t.Fatalf("step %d: timestamp regression accepted", step)
				}
			}
		case op == 12 || op == 13:
			what = "expiry"
			arg := s.next()
			now := m.now
			switch arg % 4 {
			case 0:
				now = now.Add(-3 * units.Millisecond) // behind the collector's clock
			case 1:
				now = now.Add(2 * units.Millisecond)
			}
			idle := idles[arg>>2%len(idles)]
			want := m.expire(now, idle)
			if got := c.ExpireFlows(now, idle); got != want {
				t.Fatalf("step %d: ExpireFlows(%v, %v) removed %d, model %d", step, now, idle, got, want)
			}
		case op == 14:
			what = "SetPortMapper"
			arg := s.next()
			if arg&0x80 != 0 {
				versioned = !versioned
			}
			install(arg % len(tables))
		default:
			what = "routing-epoch commit"
			arg := s.next()
			at := m.now
			if arg&0x80 != 0 {
				at = at.Add(400 * units.Microsecond) // live only for later samples
			}
			routes.commit(at, tables[arg%len(tables)])
			// The collector notices at its next Ingest; make it now, so the
			// bulk re-resolve is a step of its own.
			ingest(0, arp)
		}
		m.sync(t, c, sampled)
		m.compare(t, c, step, what)
		if lastEv != nil {
			// Nothing moved since the event fired at the end of this
			// step's sample, so the scan must reproduce its annotations.
			want := m.flowsOnPort(c, lastEv.Port)
			if lastEv.Util != m.linkUtilization(c, lastEv.Port) || len(lastEv.Flows) != len(want) {
				t.Fatalf("step %d: event %+v, scan says %v over %d flows", step, *lastEv, m.linkUtilization(c, lastEv.Port), len(want))
			}
			for i := range want {
				if lastEv.Flows[i] != want[i] {
					t.Fatalf("step %d: event flow %d is %+v, scan says %+v", step, i, lastEv.Flows[i], want[i])
				}
			}
		}
	}
}

func randomScript(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// edgeScripts reach states a random script seldom does. Each opens with
// flow 0 sampled four times 250 µs apart (static routes, label 0), which
// leaves it with a rate on port 2.
var edgeScripts = [][]byte{
	// Idle for exactly FlowFreshness — still fresh — while a mapper swap
	// moves it to port 3; 300 µs later it is stale.
	{0, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 4, 10, 2, 14, 1, 10, 0},
	// Stale, then heard again through a sample whose sequence number
	// regressed: no window closes, the old rate counts again.
	{0, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 4, 10, 4, 0, 0, 0xc1, 10, 0},
	// Expired while fresh (idle horizon 1 ms < FlowFreshness), with
	// the expiry clock ahead of the collector's.
	{0, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 4, 10, 1, 12, 1},
}

// TestLinkLoadMatchesScan is the differential property test.
func TestLinkLoadMatchesScan(t *testing.T) {
	for _, sc := range edgeScripts {
		runLinkLoadScript(t, sc)
	}
	for seed := int64(1); seed <= 24; seed++ {
		runLinkLoadScript(t, randomScript(seed, 6000))
	}
}

// FuzzLinkLoad lets the fuzzer write the script.
func FuzzLinkLoad(f *testing.F) {
	for _, sc := range edgeScripts {
		f.Add(sc)
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomScript(seed, 600))
	}
	f.Fuzz(func(t *testing.T, sc []byte) {
		if len(sc) > 4096 {
			sc = sc[:4096]
		}
		runLinkLoadScript(t, sc)
	})
}

// TestFoldKeepsLinkLoadInvariants folds reports the way an aggregation
// plane does — stamps that repeat and go backwards, epochs that skew,
// ports on and off the switch, rates with and without an estimate —
// and checks Fold's duplicate and clock rules and the accounting's
// invariants after every one.
func TestFoldKeepsLinkLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(Config{NumPorts: 4, LinkRate: units.Rate10G})
	var at units.Time
	for i := 0; i < 4000; i++ {
		at = at.Add(units.Duration(rng.Intn(1500)-300) * units.Microsecond)
		n := rng.Intn(24)
		rep := FlowReport{
			Time:    at,
			Key:     packet.FlowKey{SrcIP: packet.IPv4{10, 0, 0, byte(n)}, DstIP: packet.IPv4{10, 0, 1, 1}, SrcPort: uint16(n), DstPort: 80, Proto: packet.IPProtocolTCP},
			DstMAC:  packet.MAC{2, 0, 0, 0, 0, byte(rng.Intn(2))},
			OutPort: rng.Intn(6) - 1,
			Epoch:   uint64(rng.Intn(4)),
			Rate:    units.Rate(rng.Intn(1 << 30)),
			RateOK:  rng.Intn(4) != 0,
		}
		clock, old := c.now, c.Flow(rep.Key)
		dup := old != nil && (rep.Time < old.LastSeen || rep.Epoch < old.routeEpoch)
		f := c.Fold(&rep)
		if (f == nil) != dup {
			t.Fatalf("report %d (%+v): refused %v, duplicate %v", i, rep, f == nil, dup)
		}
		if dup {
			if c.now != clock {
				t.Fatalf("report %d: a refused report moved the clock %v → %v", i, clock, c.now)
			}
		} else {
			want := max(rep.Time, clock)
			r, ok := f.Rate()
			if c.now != want || f.LastSeen != want || f.routeEpoch != rep.Epoch || r != rep.Rate || ok != rep.RateOK {
				t.Fatalf("report %d (%+v) folded to clock %v, record seen %v epoch %d rate %v/%v", i, rep, c.now, f.LastSeen, f.routeEpoch, r, ok)
			}
			if f.OutPort() != rep.OutPort {
				t.Fatalf("report %d: port %d, record on %d", i, rep.OutPort, f.OutPort())
			}
		}
		checkLinkLoadInvariants(t, c)
	}
}

// fillPort ingests one SYN each for n more flows labelled macB (port 2),
// step apart from t0, and returns the time after the last.
func fillPort(t testing.TB, c *Collector, n int, t0 units.Time, step units.Duration) units.Time {
	t.Helper()
	var frame []byte
	for i := c.flows.Len(); n > 0; i, n = i+1, n-1 {
		frame = packet.BuildTCP(frame[:0], packet.TCPSpec{
			SrcMAC: macA, DstMAC: macB,
			SrcIP: packet.IPv4{10, byte(i >> 16), byte(i >> 8), byte(i)}, DstIP: ipB,
			SrcPort: 1000, DstPort: 2000, Flags: packet.TCPSyn,
		})
		if err := c.Ingest(t0, frame); err != nil {
			t.Fatal(err)
		}
		t0 = t0.Add(step)
	}
	return t0
}

// TestFlowsOnPortSizedToFreshSet: a congestion event on a port carrying
// 50k flows, 10 of them fresh, gets a 10-entry slice — not capacity for
// the port.
func TestFlowsOnPortSizedToFreshSet(t *testing.T) {
	c := newTestCollector()
	end := fillPort(t, c, 50_000, 0, units.Microsecond)
	if got := len(c.FlowsOnPort(2)); got != 5001 { // the last 5 ms of a 1 µs stream
		t.Fatalf("%d fresh flows while streaming", got)
	}
	later := end.Add(10 * units.Millisecond)
	for i := 0; i < 10; i++ {
		frame := packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: packet.IPv4{10, 0, 0, byte(7 * i)}, DstIP: ipB,
			SrcPort: 1000, DstPort: 2000, Flags: packet.TCPAck, PayloadLen: 1460,
		})
		if err := c.Ingest(later, frame); err != nil {
			t.Fatal(err)
		}
	}
	got := c.FlowsOnPort(2)
	if len(got) != 10 || cap(got) > 2*len(got) {
		t.Fatalf("len %d cap %d for 10 fresh flows of 50k", len(got), cap(got))
	}
	for i, fi := range got { // port-list order is insertion order here
		if fi.Key.SrcIP != (packet.IPv4{10, 0, 0, byte(7 * i)}) {
			t.Fatalf("flow %d is %v", i, fi.Key)
		}
	}
}

// TestFlowsOnPortAllocatesOnlyItsAnswer: the snapshot of a port with
// fresh flows is one allocation, its slice; a port whose flows are all
// stale, or that has none, costs none.
func TestFlowsOnPortAllocatesOnlyItsAnswer(t *testing.T) {
	c := newTestCollector()
	end := fillPort(t, c, 1_000, 0, 10*units.Microsecond)
	// Each count is one run of 100 calls: AllocsPerRun rounds its mean
	// down, so a mean over 100 runs would pass up to 199 here.
	const calls = 100
	if a := testing.AllocsPerRun(1, func() {
		for range calls {
			if len(c.FlowsOnPort(2)) == 0 {
				t.Fatal("no fresh flows on port 2")
			}
		}
	}); a != calls {
		t.Errorf("FlowsOnPort with fresh flows: %.0f allocations in %d calls, want %d", a, calls, calls)
	}
	if a := testing.AllocsPerRun(1, func() {
		for range calls {
			if len(c.FlowsOnPort(1)) != 0 {
				t.Fatal("fresh flows on port 1")
			}
		}
	}); a != 0 {
		t.Errorf("FlowsOnPort on an empty port: %.0f allocations in %d calls, want 0", a, calls)
	}
	// An ARP frame 10 ms on moves the clock past every flow's freshness.
	arp := packet.BuildARP(nil, packet.ARPSpec{
		SrcMAC: macA, DstMAC: macB, Op: packet.ARPRequest,
		SenderMAC: macA, SenderIP: ipA, TargetIP: ipB,
	})
	if err := c.Ingest(end.Add(10*units.Millisecond), arp); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(1, func() {
		for range calls {
			if got := c.FlowsOnPort(2); got == nil || len(got) != 0 {
				t.Fatalf("stale port answers %v", got)
			}
		}
	}); a != 0 {
		t.Errorf("FlowsOnPort on a port of stale flows: %.0f allocations in %d calls, want 0", a, calls)
	}
}

// TestExpireVisitsOnlyTheExpired counts records visited, not time: 1k of
// 200k flows are idle, and every survivor but the first is rigged to look
// idle to anything that reads it. Expiry that stops at the first survivor
// removes exactly 1k; expiry that looks further removes more.
func TestExpireVisitsOnlyTheExpired(t *testing.T) {
	const total, idle = 200_000, 1_000
	c := newTestCollector()
	end := fillPort(t, c, idle, 0, 10)
	end = fillPort(t, c, total-idle, end.Add(50*units.Millisecond), 10)

	f := c.oldest()
	for i := 0; i <= idle; i++ { // past the idle flows and the first survivor
		f = c.flows.at(f.next)
	}
	for ; f != nil; f = c.flows.at(f.next) {
		f.LastSeen = -units.Time(units.Second) // tripwire
	}
	n := c.ExpireFlows(end, 25*units.Millisecond)
	if n != idle || c.Stats().Flows != total-idle {
		t.Fatalf("removed %d of %d idle flows; %d live", n, idle, c.Stats().Flows)
	}
}

// TestExpireWallClockBackstop: one expiry of 45k out of 180k flows took
// ≈700 ms when it scanned the table and searched each port list; it takes
// ≈6 ms now (≈60 ms under the race detector). The limit is generous and
// the best of three tries counts, because hosts stall.
func TestExpireWallClockBackstop(t *testing.T) {
	var d time.Duration
	for try := 0; try < 3; try++ {
		c := newTestCollector()
		end := fillPort(t, c, 45_000, 0, 10)
		end = fillPort(t, c, 135_000, end.Add(50*units.Millisecond), 10)
		start := time.Now()
		n := c.ExpireFlows(end, 25*units.Millisecond)
		d = time.Since(start)
		t.Logf("expired %d of 180k flows in %v", n, d)
		if n != 45_000 {
			t.Fatalf("expired %d flows", n)
		}
		checkLinkLoadInvariants(t, c)
		if d < 100*time.Millisecond {
			return
		}
	}
	t.Fatalf("one expiry of 45k flows took over 100 ms three times running, last %v", d)
}

// TestMousePromotionKeepsPlacement: a promoted mouse's full record takes
// its table slot, recency position and port-list entry. On a port list
// of 1,000 mice, every 7th is promoted in shuffled order by a Flow
// query; every answer stays as it was. Half the flows then expire, a
// hundred at a time, oldest sample first, and the port list loses them
// by the swap-remove that order calls for.
func TestMousePromotionKeepsPlacement(t *testing.T) {
	const flows = 1_000
	c := newTestCollector()
	fillPort(t, c, flows, 0, units.Microsecond) // flow i sampled at i µs
	keys := make([]packet.FlowKey, flows)
	for i := range keys {
		keys[i] = packet.FlowKey{SrcIP: packet.IPv4{10, 0, byte(i >> 8), byte(i)}, DstIP: ipB, SrcPort: 1000, DstPort: 2000, Proto: packet.IPProtocolTCP}
	}
	check := func(what string, want []FlowInfo) {
		t.Helper()
		checkLinkLoadInvariants(t, c)
		checkMouseRefs(t, &c.flows)
		got := c.FlowsOnPort(2)
		if len(got) != len(want) {
			t.Fatalf("%s: %d flows on port 2, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: port 2 flow %d is %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	before := c.FlowsOnPort(2)
	if len(before) != flows {
		t.Fatalf("%d fresh flows on port 2, want %d", len(before), flows)
	}
	var promote []int
	for i := 0; i < flows; i += 7 {
		promote = append(promote, i)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(promote), func(a, b int) { promote[a], promote[b] = promote[b], promote[a] })
	for _, i := range promote {
		f := c.Flow(keys[i])
		if f == nil || f.flags&isMouse != 0 || f.SampledPackets != 1 || f.FirstSeen != f.LastSeen {
			t.Fatalf("Flow(%v) = %+v: not a promoted one-sample record", keys[i], f)
		}
		check("promoting", before)
	}
	if got := c.Stats().Flows; got != flows {
		t.Fatalf("%d flows after promotion, want %d", got, flows)
	}

	// The model port list: the flows in port-list order, losing each
	// expired flow by a swap-remove.
	model := append([]FlowInfo(nil), before...)
	for done := 0; done < flows/2; done += 100 {
		survivor := units.Time(0).Add(units.Duration(done+100) * units.Microsecond)
		if n := c.ExpireFlows(survivor.Add(units.Millisecond), units.Millisecond); n != 100 {
			t.Fatalf("expiry %d removed %d flows, want 100", done/100, n)
		}
		for _, k := range keys[done : done+100] {
			for j := range model {
				if model[j].Key == k {
					model[j] = model[len(model)-1]
					model = model[:len(model)-1]
					break
				}
			}
		}
		check("expiring", model)
		for i, k := range keys {
			if f := c.flows.Lookup(HashFlowKey(k), k); (f != nil) != (i >= done+100) {
				t.Fatalf("after expiry %d, flow %d present %v", done/100, i, f != nil)
			}
		}
	}
}
