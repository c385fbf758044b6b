// Command planck-scale prints the §9.1 deployment-cost table and lets
// operators explore other switch radixes. With -run it also executes a
// fleet-scale end-to-end pass: a k-ary fat tree (default k=8, 128
// hosts) monitored by a fleet of per-mirror-port vantage collectors
// feeding the federated aggregation plane, PlanckTE consuming the
// plane's merged network view, a colliding stride workload, and
// control-loop tracing. It exits nonzero unless every flow completes
// AND every pod records at least one complete detection→convergence
// trace — the scale-pipeline smoke artifact CI gates on.
//
// Usage:
//
//	planck-scale
//	planck-scale -ports 32 -monitor 2
//	planck-scale -run -k 8 -collectors 0 -seed 7
//	planck-scale -run -k 8 -transport link -link-loss 0.05
//	planck-scale -run -k 4 -transport udp -link-loss 0.05
//
// -transport selects how vantage reports reach the aggregation plane:
// in-process calls (inproc, the default), the vantagelink wire
// protocol over simulated lossy channels (link), or real UDP loopback
// sockets with one goroutine pair per vantage (udp). link and udp
// honour -link-loss, and both gate on zero duplicate congestion
// events: per-link event spacing must respect the plane's event
// cooldown even while the transport is recovering lost report frames.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"planck/internal/core"
	"planck/internal/experiments"
	"planck/internal/lab"
	"planck/internal/obs/trace"
	"planck/internal/scale"
	"planck/internal/te"
	"planck/internal/topo"
	"planck/internal/units"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, prints the tables and any
// -run pass's report to stdout and diagnostics to stderr, and returns
// the exit code — 2 for a usage error, 1 when a -run gate fails.
// Cancelling ctx cuts short a -transport udp pass, the one mode that
// waits on real sockets; the simulated passes end on their own clock.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("planck-scale", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ports := fs.Int("ports", 0, "explore a custom switch radix (0 = just the paper table)")
	monitor := fs.Int("monitor", 1, "monitor ports per switch for -ports mode")
	runPass := fs.Bool("run", false, "run a fleet end-to-end traced pass and print its trace summary")
	k := fs.Int("k", 8, "fat-tree arity for -run (even, >= 4)")
	collectors := fs.Int("collectors", 0, "vantage collectors for -run, spread round-robin across pods (0 = every switch)")
	size := fs.Int64("size", 6<<20, "per-flow bytes for -run's stride workload")
	seed := fs.Int64("seed", 7, "seed for -run")
	transport := fs.String("transport", "inproc", "report transport for -run: inproc, link, or udp")
	linkLoss := fs.Float64("link-loss", 0, "report-channel loss probability for -transport link/udp")
	linkSeed := fs.Int64("link-seed", 0, "report-channel fault seed for -transport link/udp (0 = -seed)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *runPass {
		if *k < 4 || *k%2 != 0 {
			fmt.Fprintf(stderr, "-k must be even and at least 4, got %d\n", *k)
			return 2
		}
		if *transport != "inproc" && *transport != "link" && *transport != "udp" {
			fmt.Fprintf(stderr, "unknown -transport %q (want inproc, link, or udp)\n", *transport)
			return 2
		}
	}

	fmt.Fprint(stdout, experiments.Scalability().Render())

	if *ports > 0 {
		d := scale.PlanFatTree(*ports, *monitor)
		fmt.Fprintf(stdout, "\ncustom fat-tree (%d-port, %d monitor): %s\n", *ports, *monitor, d)
		j := scale.PlanJellyfish(*ports, *monitor, d.Hosts)
		fmt.Fprintf(stdout, "custom Jellyfish (same hosts):        %s\n", j)
	}

	if !*runPass {
		return 0
	}
	ls := *linkSeed
	if ls == 0 {
		ls = *seed
	}
	switch *transport {
	case "link":
		link := &lab.Link{FaultSeed: ls}
		if *linkLoss > 0 {
			link.FaultSpec = fmt.Sprintf("loss:%g", *linkLoss)
		}
		return fleetRun(stdout, stderr, *k, *collectors, *size, *seed, link)
	case "udp":
		return udpRun(ctx, stdout, stderr, *k, *linkLoss, ls)
	default:
		return fleetRun(stdout, stderr, *k, *collectors, *size, *seed, nil)
	}
}

// eventSpacing watches emitted congestion events and counts per-link
// cooldown violations — two events on one link closer than the plane's
// event cooldown means a duplicate slipped through the fleet's dedup.
type eventSpacing struct {
	cooldown units.Duration
	last     map[string]units.Time
	events   int
	bad      int
}

func newEventSpacing(cooldown units.Duration) *eventSpacing {
	return &eventSpacing{cooldown: cooldown, last: make(map[string]units.Time)}
}

func (c *eventSpacing) observe(ev core.CongestionEvent) {
	c.events++
	key := fmt.Sprintf("%s/%d", ev.SwitchName, ev.Port)
	if prev, ok := c.last[key]; ok && ev.Time.Sub(prev) < c.cooldown {
		c.bad++
	}
	c.last[key] = ev.Time
}

// pickCollectors chooses n monitored switches round-robin across pods
// (cores last), so a partial fleet still gives every pod local
// coverage. n <= 0 selects every switch (nil = no restriction).
func pickCollectors(net *topo.Network, n int) []int {
	if n <= 0 {
		return nil
	}
	byPod := make([][]int, net.Pods+1)
	for s := 0; s < net.NumSwitches(); s++ {
		p := net.PodOfSwitch(s)
		if p < 0 {
			p = net.Pods
		}
		byPod[p] = append(byPod[p], s)
	}
	var out []int
	for i := 0; len(out) < n; i++ {
		took := false
		for p := 0; p < len(byPod) && len(out) < n; p++ {
			if i < len(byPod[p]) {
				out = append(out, byPod[p][i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// fleetRun is the end-to-end pass: build the k-ary fat tree as a
// collector fleet with the aggregation plane, point PlanckTE's network
// view at the plane, drive the colliding stride workload, and gate on
// completed flows plus one complete detection→convergence trace per
// pod. Returns the process exit code.
func fleetRun(stdout, stderr io.Writer, k, collectors int, size, seed int64, link *lab.Link) int {
	net := topo.FatTree(k, units.Rate10G)
	tracer := trace.New(4096)
	l, err := lab.New(lab.Options{
		Net:             net,
		Mirror:          true,
		Fleet:           &lab.Fleet{Link: link},
		MonitorSwitches: pickCollectors(net, collectors),
		Tracer:          tracer,
		Seed:            seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	spacing := newEventSpacing(core.Config{}.WithDefaults().EventCooldown)
	l.Agg.Subscribe(spacing.observe)
	tec := te.DefaultPlanckTEConfig()
	tec.Source = l.Agg
	te.NewPlanckTE(l.Ctrl, tec)

	res := experiments.RunWorkloadOn(l, experiments.WorkloadStride, size, seed,
		60*units.Duration(units.Second))

	fmt.Fprintf(stdout, "\nk=%d fleet pass: %d vantages, %d/%d flows completed at %v, epoch %d, %d reroutes\n",
		k, l.Agg.Vantages(), res.Completed, res.Total, res.FinishedAt,
		l.Ctrl.RoutingStore().Epoch(), l.Ctrl.ARPReroutes+l.Ctrl.OFReroutes)
	fmt.Fprintf(stdout, "aggregation plane: %d flows merged, %d events emitted, %d deduped, %d late, %d dup reports, %d stale vantages\n",
		l.Agg.FlowCount(), spacing.events, l.Agg.SuppressedCandidates(), l.Agg.LateReports(), l.Agg.DupReports(), len(l.Agg.StaleVantages()))
	if link != nil {
		if code := gateLinkTransport(stdout, stderr, l, net); code != 0 {
			return code
		}
	}
	tracer.FlushOpen()
	tracer.WriteBreakdown(stdout)

	if res.Completed < res.Total {
		fmt.Fprintf(stderr, "fleet: only %d/%d flows completed\n", res.Completed, res.Total)
		return 1
	}
	if spacing.bad > 0 {
		fmt.Fprintf(stderr, "fleet: %d/%d congestion events violated the per-link cooldown (duplicates)\n", spacing.bad, spacing.events)
		return 1
	}

	// Per-pod convergence gate: every pod must have closed at least one
	// full detection→convergence loop through the fleet.
	swIdx := make(map[string]int, net.NumSwitches())
	for s, name := range net.SwitchNames {
		swIdx[name] = s
	}
	podDone := make([]int, net.Pods)
	for _, s := range tracer.ConvergedSpans() {
		if !s.Complete() {
			continue
		}
		if p := net.PodOfSwitch(swIdx[s.Switch]); p >= 0 {
			podDone[p]++
		}
	}
	ok := true
	for p, nDone := range podDone {
		fmt.Fprintf(stdout, "pod %d: %d complete control loops\n", p, nDone)
		if nDone == 0 {
			ok = false
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "fleet: some pod closed no complete detection→convergence trace")
		return 1
	}
	return 0
}

// gateLinkTransport prints the wire-transport totals for a fleet run
// over a Link and fails it when the link did not deliver: every active
// sender must have completed the clock-sync exchange, and the receiver
// must have released records to the plane.
func gateLinkTransport(stdout, stderr io.Writer, l *lab.Lab, net *topo.Network) int {
	var frames, records, resends, sheds, lost int64
	active, synced := 0, 0
	for s := 0; s < net.NumSwitches(); s++ {
		snd := l.LinkSender(s)
		if snd == nil || snd.FramesSent() == 0 {
			continue
		}
		active++
		if _, ok := snd.Offset(); ok {
			synced++
		}
		frames += snd.FramesSent()
		records += snd.RecordsSent()
		resends += snd.Resends()
		sheds += snd.Sheds()
		if g := l.LinkGate(s); g != nil {
			lost += g.Met.Lost.Value()
		}
	}
	rx := l.LinkReceiver()
	fmt.Fprintf(stdout, "vantage link: %d senders (%d synced), %d frames / %d records sent, %d lost on the wire, %d resent, %d shed\n",
		active, synced, frames, records, lost, resends, sheds)
	fmt.Fprintf(stdout, "vantage link rx: %d records released, %d gaps detected, %d abandoned, %d late, %d dup frames\n",
		rx.RecordsReleased(), rx.GapsDetected(), rx.Abandoned(), rx.LateRecords(), rx.DupFrames())
	if synced < active {
		fmt.Fprintf(stderr, "fleet link: only %d/%d active senders completed clock sync\n", synced, active)
		return 1
	}
	if rx.RecordsReleased() == 0 {
		fmt.Fprintln(stderr, "fleet link: receiver released no records to the plane")
		return 1
	}
	return 0
}
