package agg_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"planck/internal/agg"
	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/units"
)

// The plane keeps its merged records in one core.Collector per switch,
// fed reports through Collector.Fold. This file holds the accounting it
// replaced as the oracle: a map of records keyed by (switch, flow),
// swap-remove port lists, and scans of a port's list for utilization
// and for an event's flow annotations, with the fold's duplicate and
// clock rules written out plainly. Detection has its own model too: a
// merge watermark and per-(switch, port) cooldown anchors in a map. A
// scripted op stream drives plane and oracle side by side, and after
// every op every query must agree.

type flowAt struct {
	sw  int
	key packet.FlowKey
}

type aggFlow struct {
	key      packet.FlowKey
	sw       *oracleSwitch
	dstMAC   packet.MAC
	port     int32 // egress port at sw, -1 unknown
	pos      int32 // position in sw.ports[port], -1 unlisted
	rateOK   bool
	rate     units.Rate
	epoch    uint64
	lastSeen units.Time
}

type oracleSwitch struct {
	id       int
	name     string
	capacity units.Rate
	ports    [][]*aggFlow
	clock    units.Time // the newest folded stamp: time never goes back
}

type scanPlane struct {
	cfg      core.Config // thresholds, as the plane's collectors default them
	switches map[int]*oracleSwitch
	flows    map[flowAt]*aggFlow
	merge    *mergeModel
	now      units.Time
	dup      int64
	events   []string
}

// linkAt is one monitored egress link: (switch, port).
type linkAt struct{ sw, port int }

// mergeModel is the plane's merge clock and link cooldowns written as
// plainly as possible: a watermark and a map of per-link emission
// anchors. A candidate behind the watermark is late; the late rule
// comes before the cooldown.
type mergeModel struct {
	cooldown   units.Duration
	anchors    map[linkAt]units.Time
	watermark  units.Time
	late       int64
	suppressed int64
}

// isLate drops, counted, a candidate stamped behind the watermark.
func (m *mergeModel) isLate(t units.Time) bool {
	if t < m.watermark {
		m.late++
		return true
	}
	return false
}

// offer reports whether a candidate for link at t, not late, is
// emitted: unless it falls within cooldown of the link's previous
// emission, it is, and it becomes the link's anchor and the watermark.
func (m *mergeModel) offer(link linkAt, t units.Time) bool {
	if last, ok := m.anchors[link]; ok && t.Sub(last) < m.cooldown {
		m.suppressed++
		return false
	}
	m.anchors[link] = t
	m.watermark = t
	return true
}

func (m *mergeModel) advanceTo(t units.Time) {
	if t > m.watermark {
		m.watermark = t
	}
}

// newScanPlane builds the oracle with the thresholds a plane built
// from cfg gives its switch collectors.
func newScanPlane(cfg agg.Config) *scanPlane {
	cc := core.Config{
		UtilThreshold: cfg.UtilThreshold,
		EventCooldown: cfg.EventCooldown,
		FlowFreshness: cfg.FlowFreshness,
	}.WithDefaults()
	return &scanPlane{
		cfg:      cc,
		switches: map[int]*oracleSwitch{},
		flows:    map[flowAt]*aggFlow{},
		merge:    &mergeModel{cooldown: cc.EventCooldown, anchors: map[linkAt]units.Time{}},
	}
}

func (o *scanPlane) join(sw int, name string, numPorts int, capacity units.Rate) {
	if o.switches[sw] == nil {
		o.switches[sw] = &oracleSwitch{id: sw, name: name, capacity: capacity, ports: make([][]*aggFlow, numPorts)}
	}
}

// report is Vantage.Report: the duplicate rule, then the clock rule,
// then the fold and, on a closed rate window, the late rule and
// detection.
func (o *scanPlane) report(sw, vantage int, rep core.FlowReport) {
	if rep.Time > o.now {
		o.now = rep.Time
	}
	s := o.switches[sw]
	k := flowAt{sw: sw, key: rep.Key}
	af := o.flows[k]
	if af != nil && (rep.Time < af.lastSeen || rep.Epoch < af.epoch) {
		o.dup++
		return
	}
	if af == nil {
		af = &aggFlow{key: rep.Key, sw: s, port: -1, pos: -1}
		o.flows[k] = af
	}
	t := rep.Time
	if t < s.clock {
		t = s.clock
	}
	s.clock = t
	af.lastSeen = t
	af.dstMAC = rep.DstMAC
	af.epoch = rep.Epoch
	af.rate, af.rateOK = rep.Rate, rep.RateOK
	np := int32(-1)
	if rep.OutPort >= 0 && rep.OutPort <= math.MaxInt32 {
		np = int32(rep.OutPort)
	}
	if np != af.port {
		o.moveFlow(af, np)
	}
	if rep.RateUpdated && !o.merge.isLate(rep.Time) {
		o.detect(vantage, rep.Time, af)
	}
}

// moveFlow changes a record's port-list membership (swap-remove from
// the old list, append to the new).
func (o *scanPlane) moveFlow(af *aggFlow, newPort int32) {
	sw := af.sw
	if af.port >= 0 && int(af.port) < len(sw.ports) {
		l := sw.ports[af.port]
		last := int32(len(l) - 1)
		l[af.pos] = l[last]
		l[af.pos].pos = af.pos
		sw.ports[af.port] = l[:last]
	}
	af.port = newPort
	af.pos = -1
	if newPort >= 0 && int(newPort) < len(sw.ports) {
		sw.ports[newPort] = append(sw.ports[newPort], af)
		af.pos = int32(len(sw.ports[newPort]) - 1)
	}
}

// linkUtilAt sums the rates of fresh, rate-bearing flows on the port.
func (o *scanPlane) linkUtilAt(sw *oracleSwitch, port int32, now units.Time) units.Rate {
	var util units.Rate
	for _, af := range sw.ports[port] {
		if now.Sub(af.lastSeen) <= o.cfg.FlowFreshness && af.rateOK {
			util += af.rate
		}
	}
	return util
}

// flowsOn snapshots the fresh flows on the port.
func (o *scanPlane) flowsOn(sw *oracleSwitch, port int32, now units.Time) []core.FlowInfo {
	var out []core.FlowInfo
	for _, af := range sw.ports[port] {
		if now.Sub(af.lastSeen) <= o.cfg.FlowFreshness {
			out = append(out, core.FlowInfo{Key: af.key, DstMAC: af.dstMAC, Rate: af.rate, OutPort: int(port)})
		}
	}
	return out
}

func (o *scanPlane) detect(vantage int, t units.Time, af *aggFlow) {
	sw, port := af.sw, af.port
	if port < 0 || int(port) >= len(sw.ports) {
		return
	}
	util := o.linkUtilAt(sw, port, sw.clock)
	if float64(util) < o.cfg.UtilThreshold*float64(sw.capacity) {
		return
	}
	if !o.merge.offer(linkAt{sw: sw.id, port: int(port)}, t) {
		return
	}
	o.events = append(o.events, renderFolded(core.CongestionEvent{
		Time: t, SwitchName: sw.name, Port: int(port), Util: util, Capacity: sw.capacity,
		Flows: o.flowsOn(sw, port, sw.clock), Epoch: af.epoch, Vantage: vantage,
	}))
}

func (o *scanPlane) tick(now units.Time) {
	if now > o.now {
		o.now = now
	}
}

func (o *scanPlane) advanceMerge(now units.Time) {
	o.tick(now)
	o.merge.advanceTo(now)
}

// expireFlows walks the whole map.
func (o *scanPlane) expireFlows(now units.Time, idle units.Duration) int {
	n := 0
	for k, af := range o.flows {
		if now.Sub(af.lastSeen) > idle {
			o.moveFlow(af, -1)
			delete(o.flows, k)
			n++
		}
	}
	return n
}

func (o *scanPlane) linkUtilization(sw, port int) units.Rate {
	s := o.switches[sw]
	if s == nil || port < 0 || port >= len(s.ports) {
		return 0
	}
	return o.linkUtilAt(s, int32(port), o.now)
}

func (o *scanPlane) eachFlow() []string {
	var out []string
	for _, af := range o.flows {
		if af.rateOK {
			out = append(out, renderFlow(af.sw.id, core.FlowInfo{Key: af.key, DstMAC: af.dstMAC, Rate: af.rate, OutPort: int(af.port)}, af.lastSeen))
		}
	}
	sort.Strings(out)
	return out
}

func renderFlow(sw int, fi core.FlowInfo, lastSeen units.Time) string {
	return fmt.Sprintf("sw=%d %v dst=%v rate=%d port=%d seen=%d", sw, fi.Key, fi.DstMAC, fi.Rate, fi.OutPort, lastSeen)
}

// renderFolded is renderEvent plus the provenance the fold sets.
func renderFolded(ev core.CongestionEvent) string {
	return fmt.Sprintf("%s epoch=%d vantage=%d", renderEvent(ev), ev.Epoch, ev.Vantage)
}

// The fold script's world: vantages 0 and 1 share switch 0, vantage 2
// watches switch 1; each switch has foldPorts ports; foldFlows flows.
const (
	foldPorts = 3
	foldFlows = 8
)

var (
	foldVantageSwitch = []int{0, 0, 1}
	foldCapacity      = 10 * units.Mbps
	foldRates         = []units.Rate{0, 3 * units.Mbps, 5 * units.Mbps, 9 * units.Mbps}
	foldSteps         = []units.Duration{0, 0, units.Microsecond, 100 * units.Microsecond, 300 * units.Microsecond,
		2 * units.Millisecond, 6 * units.Millisecond, -units.Millisecond}
	foldIdles = []units.Duration{0, units.Millisecond, 5 * units.Millisecond, 20 * units.Millisecond}
)

func foldKey(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP: packet.IPv4{10, 0, 0, byte(i)}, DstIP: packet.IPv4{10, 0, 1, byte(i % 3)},
		SrcPort: uint16(4000 + i), DstPort: 5001, Proto: packet.IPProtocolTCP,
	}
}

// runFoldScript drives a plane built from cfg and the oracle with three
// bytes per op. b0 picks the op (reports five times in eight, else Tick, AdvanceMerge
// or ExpireFlows) and the vantage; b1 the flow, port and rate (or the
// time step); b2 the stamp step, RateOK, RateUpdated, an epoch bump and
// a label change (or the idle bound).
func runFoldScript(t *testing.T, cfg agg.Config, sc []byte) {
	t.Helper()
	p := agg.New(cfg)
	var got []string
	p.Subscribe(func(ev core.CongestionEvent) { got = append(got, renderFolded(ev)) })
	o := newScanPlane(cfg)
	var vs []*agg.Vantage
	for _, sw := range foldVantageSwitch {
		name := fmt.Sprintf("sw%d", sw)
		vs = append(vs, p.Join(sw, name, foldPorts, foldCapacity))
		o.join(sw, name, foldPorts, foldCapacity)
	}
	clock := make([]units.Time, len(vs))
	epoch := make([]uint64, len(vs))
	var newest units.Time
	for step := 0; len(sc) >= 3; step, sc = step+1, sc[3:] {
		b0, b1, b2 := sc[0], sc[1], sc[2]
		var what string
		switch op := b0 % 8; {
		case op < 5:
			v := int(b0>>3) % len(vs)
			clock[v] = clock[v].Add(foldSteps[b2&7])
			if clock[v] > newest {
				newest = clock[v]
			}
			if b2&32 != 0 {
				epoch[v]++
			}
			flow := int(b1) % foldFlows
			rep := core.FlowReport{
				Time: clock[v], Key: foldKey(flow),
				DstMAC:  packet.MAC{2, 0, 0, 0, byte(flow), b2 >> 6 & 1},
				OutPort: int(b1>>3)%(foldPorts+2) - 1,
				Epoch:   epoch[v],
				Rate:    foldRates[b1>>6], RateOK: b2&8 != 0, RateUpdated: b2&16 != 0,
			}
			what = fmt.Sprintf("v%d reports %+v", v, rep)
			vs[v].Report(&rep)
			o.report(foldVantageSwitch[v], int(vs[v].ID()), rep)
		case op == 5:
			now := newest.Add(foldSteps[b1&7])
			what = fmt.Sprintf("Tick(%d)", now)
			p.Tick(now)
			o.tick(now)
		case op == 6:
			now := newest.Add(foldSteps[b1&7])
			what = fmt.Sprintf("AdvanceMerge(%d)", now)
			p.AdvanceMerge(now)
			o.advanceMerge(now)
		default:
			now, idle := newest.Add(foldSteps[b1&7]), foldIdles[b2&3]
			what = fmt.Sprintf("ExpireFlows(%d, %v)", now, idle)
			if g, w := p.ExpireFlows(now, idle), o.expireFlows(now, idle); g != w {
				t.Fatalf("step %d (%s): expired %d, scan %d", step, what, g, w)
			}
		}
		compareFold(t, step, what, p, o, got)
	}
}

func compareFold(t *testing.T, step int, what string, p *agg.Plane, o *scanPlane, got []string) {
	t.Helper()
	for sw := range o.switches {
		for port := -1; port <= foldPorts; port++ {
			if g, w := p.LinkUtilization(sw, port), o.linkUtilization(sw, port); g != w {
				t.Fatalf("step %d (%s): sw%d port %d utilization %v, scan %v", step, what, sw, port, g, w)
			}
		}
	}
	if g, w := p.FlowCount(), len(o.flows); g != w {
		t.Fatalf("step %d (%s): %d flows, scan %d", step, what, g, w)
	}
	var flows []string
	p.EachFlow(func(sw int, fi core.FlowInfo, lastSeen units.Time) {
		flows = append(flows, renderFlow(sw, fi, lastSeen))
	})
	sort.Strings(flows)
	if w := o.eachFlow(); !reflect.DeepEqual(flows, w) {
		t.Fatalf("step %d (%s): flows\n got %v\nscan %v", step, what, flows, w)
	}
	if g, w := p.DupReports(), o.dup; g != w {
		t.Fatalf("step %d (%s): %d duplicate reports, scan %d", step, what, g, w)
	}
	if g, w := p.SuppressedCandidates(), o.merge.suppressed; g != w {
		t.Fatalf("step %d (%s): %d suppressed candidates, scan %d", step, what, g, w)
	}
	if g, w := p.LateReports(), o.merge.late; g != w {
		t.Fatalf("step %d (%s): %d late reports, scan %d", step, what, g, w)
	}
	if !reflect.DeepEqual(got, o.events) {
		t.Fatalf("step %d (%s): events\n got %v\nscan %v", step, what, got, o.events)
	}
}

// TestPlaneFoldMatchesScan runs 40 scripts at the default thresholds
// and again at non-default ones, so a switch collector that ignored the
// plane's thresholds would not pass.
func TestPlaneFoldMatchesScan(t *testing.T) {
	for _, cfg := range []agg.Config{{}, {
		UtilThreshold: 0.5,
		EventCooldown: units.Millisecond,
		FlowFreshness: 2 * units.Millisecond,
	}} {
		for seed := int64(1); seed <= 40; seed++ {
			sc := make([]byte, 3*400)
			rand.New(rand.NewSource(seed)).Read(sc)
			runFoldScript(t, cfg, sc)
		}
	}
}

func FuzzPlaneFold(f *testing.F) {
	f.Add([]byte{0, 0x48, 0x18, 8, 0xc8, 0x18, 0, 0xc8, 0x1b, 5, 6, 0, 7, 6, 1})
	for seed := int64(1); seed <= 4; seed++ {
		sc := make([]byte, 3*64)
		rand.New(rand.NewSource(seed)).Read(sc)
		f.Add(sc)
	}
	f.Fuzz(func(t *testing.T, sc []byte) {
		if len(sc) > 3*512 {
			sc = sc[:3*512]
		}
		runFoldScript(t, agg.Config{}, sc)
	})
}
