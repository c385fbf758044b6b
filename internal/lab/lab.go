// Package lab assembles complete simulated testbeds: a topology is
// instantiated into switches, hosts, monitor links, collector processes,
// and a controller, mirroring the paper's physical setup (§7.1) — IBM
// G8264-class switches, Linux hosts, one collector instance per monitor
// port, and a Floodlight-derived controller.
package lab

import (
	"fmt"
	"io"
	"math/rand"

	"planck/internal/agg"
	"planck/internal/controller"
	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/governor"
	"planck/internal/obs"
	"planck/internal/obs/trace"
	"planck/internal/sim"
	"planck/internal/switchsim"
	"planck/internal/tcpsim"
	"planck/internal/topo"
	"planck/internal/units"
	"planck/internal/vantagelink"
)

// Options configures a testbed build.
type Options struct {
	// Net is the topology (required).
	Net *topo.Network
	// SwitchConfig builds a switch profile given a name and port count.
	// Defaults to ProfileG8264 for 10G topologies and ProfilePronto3290
	// for 1G ones.
	SwitchConfig func(name string, ports int) switchsim.Config
	// CollectorConfig seeds collector thresholds; switch name, port
	// count, and link rate are filled per switch.
	CollectorConfig core.Config
	// Mirror enables oversubscribed mirroring and collectors. Fleet and
	// Govern require it.
	Mirror bool
	// InSwitchCollectors realizes §9.2's in-switch collector proposal:
	// collectors consume samples at switching time through a data-plane
	// sink instead of a monitor port, so samples see no mirror buffering
	// and no front-panel port is spent. Requires Mirror.
	InSwitchCollectors bool
	// MonitorSwitches, when non-nil, restricts mirroring and collectors
	// to the listed switch indices — a partial fleet deployment. Nil
	// monitors every switch with a monitor port.
	MonitorSwitches []int
	// Fleet, when non-nil, runs the testbed as a collector fleet.
	Fleet *Fleet
	// Supervise runs a Supervisor per monitored switch: heartbeat
	// staleness detection, crash restart with state re-sync, and retried
	// event delivery. Supervised collectors route events to the
	// controller through the supervisor's Deliverer instead of a direct
	// attachment.
	Supervise bool
	// Govern runs a sampling-rate Governor per monitored switch: a
	// closed-loop control application that estimates the effective
	// mirror sampling rate online from the switch's mirror counters and
	// sheds low-value mirror ports or tunes per-port sample budgets
	// through the epoch-versioned snapshot plane when the monitor port
	// saturates. Combined with Supervise, the governor never actuates
	// while the feed is dark.
	Govern bool
	// InitialTrees assigns each destination's PAST tree. Nil picks a
	// uniform random tree per address (PAST-R), matching the testbed.
	InitialTrees []int
	// Tracer, when non-nil, records control-loop spans end to end:
	// every collector assigns event IDs through it, the controller
	// marks decisions and actuations, supervisors mark queueing and
	// drops, and its /debug/traces endpoints are mounted on Metrics.
	Tracer *trace.Tracer
	// TraceDump, when set alongside Tracer, receives an automatic
	// flight-recorder dump whenever a supervised feed goes dark or a
	// collector crash is restarted.
	TraceDump io.Writer
	// Seed drives all randomness in the testbed.
	Seed int64
}

// Fleet makes every monitored switch's collector a vantage reporting
// into one federated aggregation plane (internal/agg): congestion
// events reach the controller as the plane's merged, deduplicated,
// cooldown-coherent network-wide stream instead of per-collector
// subscriptions. The plane takes its thresholds from the (defaulted)
// CollectorConfig, so fleet and collectors agree on what "congested"
// means.
type Fleet struct {
	// Link, when non-nil, carries vantage reports over the
	// internal/vantagelink wire protocol on simulated channels. Nil
	// hands each collector's reports to its vantage synchronously, in
	// process.
	Link *Link
}

// Link configures the simulated report transport of a Fleet: sequenced
// binary frames, NACK/retransmit recovery, heartbeat liveness, and
// clock sync, with the plane's merge clock driven by the receiver's
// delivery watermark instead of wall time.
type Link struct {
	// FaultSpec, when non-empty, is parsed with faults.ParseSpec and
	// applied to every vantage's report channel — loss, corrupt, dup,
	// reorder, partition, and chandelay on the report path, recovered by
	// the transport's NACK/retransmit loop.
	FaultSpec string
	// FaultSeed seeds the report-channel fault gates (0 uses Seed).
	FaultSeed int64
}

// Fixed timing of the simulated testbed.
const (
	// linkDelay is the per-hop propagation delay.
	linkDelay = 500 * units.Nanosecond
	// reportDelay is the one-way report/control channel latency of a
	// Fleet's Link.
	reportDelay = 25 * units.Microsecond
	// linkTick is the cadence of a Link's endpoints: heartbeats, NACK
	// pacing, silence exclusion.
	linkTick = 250 * units.Microsecond
)

// pollTiming models the capture stack at line rate r: collector ingest
// is batched every interval, and overhead (NIC DMA, netmap wakeup,
// userspace batch handling) is added to each sample's timestamp. The
// values are calibrated so the undersubscribed sample latency lands in
// the paper's 75–150 µs (10G) / 80–450 µs (1G) bands; the 1 Gbps path
// in the paper shows wider jitter.
func pollTiming(r units.Rate) (interval, overhead units.Duration) {
	if r >= units.Rate10G {
		return 45 * units.Microsecond, 85 * units.Microsecond
	}
	return 350 * units.Microsecond, 80 * units.Microsecond
}

// Lab is an assembled testbed.
type Lab struct {
	Eng        *sim.Engine
	Net        *topo.Network
	Rng        *rand.Rand
	Switches   []*switchsim.Switch
	Hosts      []*tcpsim.Host
	Collectors []*CollectorNode // indexed by switch; nil when unmonitored
	Ctrl       *controller.Controller

	// Supervisors holds each monitored switch's supervision loop when
	// Options.Supervise is set (indexed by switch; nil otherwise).
	Supervisors []*Supervisor

	// Governors holds each monitored switch's sampling-rate governor
	// when Options.Govern is set (indexed by switch; nil otherwise).
	Governors []*governor.Governor

	// Agg is the federated aggregation plane when Options.Fleet is set;
	// it implements te.NetworkSource for fleet-fed traffic engineering.
	Agg *agg.Plane

	// Faults is the active fault schedule (nil until ApplyFaults); the
	// supervisors consult it for partition and channel-delay windows.
	Faults *faults.Schedule

	// Metrics aggregates every component's instruments: the engine's
	// vitals, the controller's actuation delays, each collector's
	// per-stage timings, and each collector node's latency histograms.
	// Serve it (obs.Serve) to watch a running testbed live.
	Metrics *obs.Registry

	opts Options

	// collectorCfgs keeps each monitored switch's filled collector
	// config so supervisors can rebuild crashed collectors identically
	// (in fleet mode the config carries the switch's vantage sink, so
	// replacements rejoin the plane automatically).
	collectorCfgs []core.Config
	// vantages holds each monitored switch's plane vantage in fleet
	// mode (indexed by switch; nil entries otherwise).
	vantages []*agg.Vantage
	// linkSenders/linkGates/linkRecv are the wire-transport endpoints
	// when Options.Fleet has a Link (indexed by switch).
	linkSenders []*vantagelink.Sender
	linkGates   []*vantagelink.FaultGate
	linkRecv    *vantagelink.Receiver
	// linkSched is the parsed Link.FaultSpec schedule shared by every
	// report-channel gate.
	linkSched *faults.Schedule
	// faultMetrics aggregates injected-fault counters across all feeds.
	faultMetrics *faults.Metrics
}

// New builds a testbed.
func New(opts Options) (*Lab, error) {
	if opts.Net == nil {
		return nil, fmt.Errorf("lab: Options.Net is required")
	}
	if opts.Fleet != nil && !opts.Mirror {
		return nil, fmt.Errorf("lab: Options.Fleet requires Mirror")
	}
	if opts.Govern && !opts.Mirror {
		return nil, fmt.Errorf("lab: Options.Govern requires Mirror (the governor actuates mirror configuration)")
	}
	var linkSched *faults.Schedule
	if link := opts.link(); link != nil && link.FaultSpec != "" {
		sched, err := faults.ParseSpec(link.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("lab: Fleet.Link.FaultSpec: %w", err)
		}
		linkSched = sched
	}
	net := opts.Net
	if opts.SwitchConfig == nil {
		if net.LineRate >= units.Rate10G {
			opts.SwitchConfig = switchsim.ProfileG8264
		} else {
			opts.SwitchConfig = switchsim.ProfilePronto3290
		}
	}

	eng := sim.New()
	rng := rand.New(rand.NewSource(opts.Seed))
	l := &Lab{
		Eng:           eng,
		Net:           net,
		Rng:           rng,
		Switches:      make([]*switchsim.Switch, net.NumSwitches()),
		Hosts:         make([]*tcpsim.Host, net.NumHosts()),
		Collectors:    make([]*CollectorNode, net.NumSwitches()),
		Supervisors:   make([]*Supervisor, net.NumSwitches()),
		Governors:     make([]*governor.Governor, net.NumSwitches()),
		Metrics:       obs.NewRegistry(),
		opts:          opts,
		collectorCfgs: make([]core.Config, net.NumSwitches()),
		linkSched:     linkSched,
	}
	eng.RegisterMetrics(l.Metrics)

	for s := 0; s < net.NumSwitches(); s++ {
		cfg := opts.SwitchConfig(net.SwitchNames[s], len(net.Ports[s]))
		cfg.Name = net.SwitchNames[s]
		cfg.NumPorts = len(net.Ports[s])
		sw, err := switchsim.New(eng, cfg)
		if err != nil {
			return nil, err
		}
		l.Switches[s] = sw
	}
	for h := 0; h < net.NumHosts(); h++ {
		host := tcpsim.NewHost(eng, fmt.Sprintf("h%d", h),
			topo.ShadowMAC(h, 0), topo.HostIP(h), net.LineRate, rng)
		l.Hosts[h] = host
	}

	// Wire switch-to-switch and host links.
	for s := 0; s < net.NumSwitches(); s++ {
		for p, ep := range net.Ports[s] {
			switch ep.Kind {
			case topo.ToSwitch:
				if ep.Switch > s || (ep.Switch == s && ep.Port > p) {
					sim.Connect(l.Switches[s].Port(p), l.Switches[ep.Switch].Port(ep.Port), linkDelay)
				}
			case topo.ToHost:
				sim.Connect(l.Hosts[ep.Host].NIC(), l.Switches[s].Port(p), linkDelay)
			}
		}
	}

	// Controller, routes, mirroring, collectors.
	l.Ctrl = controller.New(eng, net, l.Switches, l.Hosts, controller.DefaultConfig(), rng)
	l.Ctrl.RegisterMetrics(l.Metrics)
	if opts.Tracer != nil {
		l.Ctrl.SetTracer(opts.Tracer)
		opts.Tracer.RegisterMetrics(l.Metrics)
	}
	trees := opts.InitialTrees
	if trees == nil {
		trees = make([]int, net.NumHosts())
		for i := range trees {
			trees[i] = rng.Intn(net.NumTrees)
		}
	}
	l.Ctrl.InstallRoutes(trees, opts.Mirror)

	if opts.Fleet != nil {
		l.buildAggPlane()
		if opts.link() != nil {
			l.linkSenders = make([]*vantagelink.Sender, net.NumSwitches())
			l.linkGates = make([]*vantagelink.FaultGate, net.NumSwitches())
			l.buildLinkReceiver()
		}
	}
	var monitored map[int]bool
	if opts.MonitorSwitches != nil {
		monitored = make(map[int]bool, len(opts.MonitorSwitches))
		for _, s := range opts.MonitorSwitches {
			if s < 0 || s >= net.NumSwitches() {
				return nil, fmt.Errorf("lab: MonitorSwitches entry %d out of range", s)
			}
			monitored[s] = true
		}
	}

	if opts.Mirror {
		for s := 0; s < net.NumSwitches(); s++ {
			mp := net.MonitorPort[s]
			if mp < 0 || (monitored != nil && !monitored[s]) {
				continue
			}
			ccfg := opts.CollectorConfig
			ccfg.SwitchName = net.SwitchNames[s]
			ccfg.NumPorts = len(net.Ports[s])
			ccfg.LinkRate = net.LineRate
			ccfg.Metrics = l.Metrics
			// The tracer rides in the stored config, so supervisor
			// restarts rebuild replacement collectors with the same ID
			// source and the ID stream stays monotone across crashes.
			ccfg.Tracer = opts.Tracer
			if l.Agg != nil {
				// Fleet mode: this collector is a vantage. It reports every
				// flow sample to the plane, carries no event subscribers of
				// its own (detection is the plane's job — a local
				// subscriber would duplicate every event), and the sink
				// rides in the stored config so supervised restarts rejoin
				// the same vantage.
				v := l.Agg.Join(s, ccfg.SwitchName, ccfg.NumPorts, ccfg.LinkRate)
				l.vantages[s] = v
				ccfg.Vantage = int(v.ID())
				if opts.link() != nil {
					// Wire transport: the collector's sink is a vantagelink
					// sender whose frames reach the plane's shared receiver
					// over a (possibly faulty) simulated channel.
					ccfg.Sink = l.buildLink(s, v, ccfg.SwitchName)
				} else {
					ccfg.Sink = v
				}
			}
			l.collectorCfgs[s] = ccfg
			poll, overhead := pollTiming(net.LineRate)
			node := NewCollectorNode(eng, core.New(ccfg), net.LineRate, poll, overhead)
			node.Tracer = opts.Tracer
			node.RegisterMetrics(l.Metrics, ccfg.SwitchName)
			if opts.InSwitchCollectors {
				node.AttachInSwitch(l.Switches[s])
			} else {
				sim.Connect(node.Port(), l.Switches[s].Port(mp), linkDelay)
			}
			l.Collectors[s] = node
			// Every collector is attached: it gets the routing oracle
			// and answers the controller's flow queries (§3.3).
			l.Ctrl.AttachCollector(s, node.Collector())
			if opts.Supervise {
				// Supervised events go through the supervisor's retrying
				// Deliverer.
				l.Supervisors[s] = newSupervisor(l, s, node)
			} else if l.Agg == nil {
				// Direct delivery. A vantage's events come from the
				// plane instead: subscribing the controller to local
				// detection as well would double-report what it merges.
				node.Collector().Subscribe(l.Ctrl.DeliverEvent)
			}
			if opts.Govern {
				gov := governor.New(net.SwitchNames[s], s, l.Switches[s], l.Ctrl, net.LineRate)
				if sup := l.Supervisors[s]; sup != nil {
					// The chaos contract: the governor must not actuate
					// from a dark vantage's stale estimate.
					gov.SetDarkGuard(sup.Dark)
				}
				if opts.Tracer != nil {
					gov.SetTracer(opts.Tracer, l.Ctrl.RoutingStore().Epoch)
				}
				gov.RegisterMetrics(l.Metrics)
				l.Governors[s] = gov
				sim.NewTicker(eng, governor.Tick, gov.Tick)
			}
		}
	}
	return l, nil
}

// link returns the fleet's report transport, or nil for an in-process
// fleet or none.
func (o *Options) link() *Link {
	if o.Fleet == nil {
		return nil
	}
	return o.Fleet.Link
}

// ApplyFaults activates sched on every monitored collector feed: each
// node gets its own deterministic injector (seeded from seed mixed with
// the switch index, counters shared across feeds), crash rules are
// scheduled as engine events, and the schedule is published on
// l.Faults for the supervisors' partition/delay checks. Call before
// Run; calling with an empty schedule is a no-op beyond recording it.
// A schedule with a rule only a Supervisor acts on (NeedsSupervisor) is
// refused on a lab built without Options.Supervise.
func (l *Lab) ApplyFaults(sched *faults.Schedule, seed int64) error {
	if !l.opts.Supervise && NeedsSupervisor(sched) {
		return fmt.Errorf("lab: fault schedule %q has a crash, partition or chandelay rule, which only a Supervisor acts on: set Options.Supervise", sched)
	}
	l.Faults = sched
	if sched.Empty() {
		return nil
	}
	if l.faultMetrics == nil {
		l.faultMetrics = &faults.Metrics{}
		l.faultMetrics.Register(l.Metrics)
	}
	for s, node := range l.Collectors {
		if node == nil {
			continue
		}
		node.SetFaultInjector(faults.NewInjector(sched, seed+int64(s)*7919, l.faultMetrics))
		for _, ct := range sched.CrashTimes() {
			l.Eng.Schedule(ct, sim.Callback(node.Crash), nil)
		}
	}
	return nil
}

// NeedsSupervisor reports whether sched has a rule only a Supervisor
// acts on: a crash, which kills a collector only a supervisor restarts,
// or a partition or channel delay, which only supervised event delivery
// (Lab.sendEvent) reads. Without supervision a crash silences the
// collector for the rest of the run and the other two change nothing.
func NeedsSupervisor(sched *faults.Schedule) bool {
	for _, r := range sched.Rules() {
		switch r.Kind {
		case faults.KindCrash, faults.KindPartition, faults.KindChanDelay:
			return true
		}
	}
	return false
}

// buildAggPlane assembles the federated aggregation plane for fleet
// mode: threshold coherence with the collectors, merged-event delivery
// into the controller, and a periodic tick for vantage liveness.
func (l *Lab) buildAggPlane() {
	opts := l.opts
	cc := opts.CollectorConfig.WithDefaults()
	acfg := agg.Config{
		UtilThreshold: cc.UtilThreshold,
		EventCooldown: cc.EventCooldown,
		FlowFreshness: cc.FlowFreshness,
		Metrics:       l.Metrics,
		Tracer:        opts.Tracer,
	}
	l.Agg = agg.New(acfg)
	l.vantages = make([]*agg.Vantage, l.Net.NumSwitches())

	// Merged events reach the controller through the same machinery a
	// single collector's events would: under supervision, a retrying
	// deliverer gated by the fault schedule's partition and delay
	// windows; otherwise a direct synchronous handoff.
	if opts.Supervise {
		del := controller.NewSimDeliverer(l.Eng, opts.Seed+0x5eed, l.sendEvent)
		del.Tracer = opts.Tracer
		l.Agg.Subscribe(func(ev core.CongestionEvent) {
			now := l.Eng.Now()
			if tr := opts.Tracer; tr != nil {
				tr.MarkQueued(ev.ID, now)
			}
			del.Deliver(now, ev)
		})
	} else {
		l.Agg.Subscribe(l.Ctrl.DeliverEvent)
	}
	poll, _ := pollTiming(l.Net.LineRate)
	sim.NewTicker(l.Eng, poll, l.Agg.Tick)
}

// Run drives the simulation until deadline.
func (l *Lab) Run(until units.Duration) { l.Eng.RunUntil(units.Time(until)) }

// Collector returns the collector attached to switch s, or nil.
func (l *Lab) Collector(s int) *core.Collector {
	if n := l.Collectors[s]; n != nil {
		return n.Collector()
	}
	return nil
}

// Governor returns switch s's sampling-rate governor, or nil when the
// lab was built without Options.Govern.
func (l *Lab) Governor(s int) *governor.Governor { return l.Governors[s] }
