// Command planck-collector runs the Planck collector outside the
// simulator: it replays a pcap capture (e.g., a vantage-point dump, or
// any tcpdump of a mirror port) through the real collector pipeline, or
// listens for a live UDP-encapsulated sample stream, and reports flow
// rates and ingest health.
//
// Usage:
//
//	planck-collector -pcap capture.pcap
//	planck-collector -pcap capture.pcap -top 20
//	planck-collector -pcap capture.pcap -fault "loss:0.05,skew:200us" -fault-seed 7
//	planck-collector -listen :5601 -max-samples 100000
//	planck-collector -listen :5601 -metrics :9090 -stats-every 5s
//	planck-collector -listen :5601 -report plane-host:5700 -vantage 3
//
// One process runs one collector for one monitor port, as in the paper.
// To cover several ports, run one planck-collector per port, each with
// -report pointing at the same aggregation plane and its own -vantage:
// the plane merges their reports into one network-wide view.
//
// -report turns the collector into one vantage of such a fleet: every
// ingested sample is forwarded to an aggregation plane at the given
// address over the vantagelink wire protocol (sequenced frames,
// NACK/retransmit recovery, heartbeat liveness, clock sync). Requires
// -listen (a live stream shares the plane's epoch time axis; a pcap
// replay does not). -vantage sets this collector's fleet id.
//
// The live listener drains the socket in read cycles of up to
// planck.DefaultUDPBatch datagrams and hands each cycle to the
// collector in one IngestBatch call. SIGINT or SIGTERM ends a live
// session the way reaching -max-samples does: the final report is
// still printed.
//
// With -metrics, an HTTP endpoint serves /metrics (Prometheus text),
// /debug/vars (JSON), and /debug/pprof/* for the full pipeline: samples,
// decode errors, malformed datagrams, flow-table size, and per-stage
// wall-clock timing histograms (decode, flow table, rate estimation,
// utilization, event dispatch).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"planck"
	"planck/internal/core"
	"planck/internal/faults"
	"planck/internal/obs"
	"planck/internal/units"
	"planck/internal/vantagelink"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, runs one pcap replay or
// live session, prints the report to stdout and diagnostics to stderr,
// and returns the exit code. Cancelling ctx ends a live session as if
// its sample budget had been reached.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("planck-collector", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pcapPath := fs.String("pcap", "", "pcap file to replay")
	listen := fs.String("listen", "", "UDP address for a live sample stream (8B ns timestamp + frame per datagram)")
	maxSamples := fs.Int("max-samples", 0, "stop the live listener after N samples (0 = run until interrupted)")
	topFlows := fs.Int("top", 10, "flows to print")
	metricsAddr := fs.String("metrics", "", "HTTP address serving /metrics, /debug/vars, /debug/pprof (empty = off)")
	statsEvery := fs.Duration("stats-every", 0, "period between one-line stats reports on stderr (0 = off)")
	faultSpec := fs.String("fault", "", `mirror-path fault-injection spec applied to the ingest stream (loss, corrupt, dup, reorder, skew), e.g. "loss:0.05" or "loss@20ms-40ms,skew:200us" (empty = off)`)
	faultSeed := fs.Int64("fault-seed", 1, "seed for the fault injector's PRNG")
	reportAddr := fs.String("report", "", "UDP address of an aggregation-plane receiver; forwards every sample over the vantagelink transport (empty = off)")
	vantage := fs.Int("vantage", 1, "fleet vantage id stamped on forwarded reports (with -report)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if (*pcapPath == "") == (*listen == "") {
		fmt.Fprintln(stderr, "exactly one of -pcap or -listen is required")
		fs.Usage()
		return 2
	}
	if *reportAddr != "" && *listen == "" {
		fmt.Fprintln(stderr, "-report requires -listen: a live stream shares the plane's time axis, a pcap replay does not")
		return 2
	}
	if *vantage < 1 || *vantage > 65535 {
		fmt.Fprintln(stderr, "-vantage must be in [1, 65535]")
		return 2
	}

	reg := obs.NewRegistry()
	ccfg := core.Config{
		SwitchName: "collector",
		Metrics:    reg,
		Vantage:    *vantage,
	}

	// With -report, every ingested sample is forwarded to the
	// aggregation plane over the wire transport. The epoch wall clock
	// matches the live stream's nanosecond timestamps, so heartbeats
	// and records share one time axis and the sync exchange measures a
	// meaningful offset.
	var reporter *vantagelink.UDPSender
	if *reportAddr != "" {
		tx, err := vantagelink.DialUDPSender(*reportAddr, vantagelink.SenderConfig{
			Vantage:    uint16(*vantage),
			SwitchName: ccfg.SwitchName,
			Metrics:    reg,
		}, vantagelink.NewEpochWallClock(), units.Millisecond, nil)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		reporter = tx
		ccfg.Sink = tx
		fmt.Fprintf(stderr, "reporting to aggregation plane at %s as vantage %d\n", *reportAddr, *vantage)
	}
	col := core.New(ccfg)
	var ing planck.Ingester = col

	// An optional fault layer interposes between the stream source and
	// the collector: the same pipeline runs, but the spec's mirror-path
	// faults (loss, corruption, duplication, reordering, skew) hit every
	// frame first — for resilience testing against recorded captures.
	var faulty *planck.FaultyIngester
	if *faultSpec != "" {
		sched, err := planck.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		// A stall, crash, partition or channel delay acts on a collector
		// node, a supervisor or the event channel, none of which this
		// command has: a run under one would report no fault at all.
		for _, r := range sched.Rules() {
			switch r.Kind {
			case faults.KindStall, faults.KindCrash, faults.KindPartition, faults.KindChanDelay:
				fmt.Fprintf(stderr, "-fault %s: planck-collector injects only loss, corrupt, dup, reorder and skew\n", r.Kind)
				return 2
			}
		}
		faulty = planck.WrapFaults(col, sched, *faultSeed)
		faulty.Injector().Metrics().Register(reg)
		ing = faulty
		fmt.Fprintf(stderr, "fault injection active: %s (seed %d)\n", sched, *faultSeed)
	}

	var udpStats planck.UDPServeStats
	reg.GaugeFunc("planck_udp_samples_total", func() float64 { return float64(udpStats.Samples.Load()) })
	reg.GaugeFunc("planck_udp_short_datagrams_total", func() float64 { return float64(udpStats.ShortDatagrams.Load()) })
	reg.GaugeFunc("planck_udp_timestamp_regressions_total", func() float64 { return float64(udpStats.TimestampRegressions.Load()) })
	reg.GaugeFunc("planck_udp_ingest_errors_total", func() float64 { return float64(udpStats.IngestErrors.Load()) })
	reg.GaugeFunc("planck_udp_unbatched_serves_total", func() float64 { return float64(udpStats.UnbatchedServes.Load()) })

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "metrics on http://%s/metrics (also /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	if *statsEvery > 0 {
		stop := reg.LogPeriodically(stderr, *statsEvery)
		defer stop()
	}

	frames := 0
	if *listen != "" {
		conn, err := net.ListenPacket("udp", *listen)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer conn.Close()
		fmt.Fprintf(stdout, "listening on %s\n", conn.LocalAddr())
		// Cancellation expires the read in progress, which ends the serve
		// loop like a closed socket.
		stopCancel := context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Now()) })
		defer stopCancel()
		n, err := planck.ServeUDPBatched(conn, ing, *maxSamples, planck.DefaultUDPBatch, &udpStats)
		if err != nil && ctx.Err() == nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		frames = n
		if bad := udpStats.ShortDatagrams.Load() + udpStats.TimestampRegressions.Load() + udpStats.IngestErrors.Load(); bad > 0 {
			fmt.Fprintf(stderr, "malformed input: %d short datagrams, %d timestamp regressions, %d unparseable frames\n",
				udpStats.ShortDatagrams.Load(), udpStats.TimestampRegressions.Load(), udpStats.IngestErrors.Load())
		}
	} else {
		f, err := os.Open(*pcapPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		n, err := planck.ReplayPcap(f, ing)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		frames = n
	}

	st := col.Stats()
	if reporter != nil {
		reporter.Close()
		snd := reporter.Sender()
		synced := "no"
		if _, ok := snd.Offset(); ok {
			synced = "yes"
		}
		fmt.Fprintf(stdout, "vantage link: %d frames / %d records sent, %d resent, %d shed, clock synced: %s\n",
			snd.FramesSent(), snd.RecordsSent(), snd.Resends(), snd.Sheds(), synced)
	}
	fmt.Fprintf(stdout, "replayed %d frames: %d flows, %d rate updates, %d decode errors, %d non-TCP\n",
		frames, st.Flows, st.RateUpdates, st.DecodeErrors, st.NonTCP)
	if st.UnmappedOutput > 0 {
		fmt.Fprintf(stdout, "route inference: %d samples carried labels no routing view could map\n", st.UnmappedOutput)
	}
	if faulty != nil {
		fm := faulty.Injector().Metrics()
		fmt.Fprintf(stdout, "faults injected: %d lost, %d corrupted, %d duplicated, %d reordered, %d skewed\n",
			fm.Lost.Value(), fm.Corrupted.Value(), fm.Duplicated.Value(), fm.Reordered.Value(), fm.Skewed.Value())
	}
	if tm := col.IngestTimings(); tm != nil && tm.N() > 0 {
		fmt.Fprintf(stdout, "ingest wall time: p50=%.0fns p99=%.0fns over %d samples\n",
			tm.Median(), tm.Quantile(0.99), tm.N())
	}

	type row struct {
		key  string
		rate units.Rate
		pkts int64
	}
	var rows []row
	col.Flows(func(fs *core.FlowState) {
		r, _ := fs.Rate()
		rows = append(rows, row{key: fs.Key.String(), rate: r, pkts: fs.SampledPackets})
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rate != rows[j].rate {
			return rows[i].rate > rows[j].rate
		}
		return rows[i].key < rows[j].key
	})
	if len(rows) > *topFlows {
		rows = rows[:*topFlows]
	}
	fmt.Fprintln(stdout, "top flows by last estimated rate:")
	for _, r := range rows {
		fmt.Fprintf(stdout, "  %-45s %10v  (%d samples)\n", r.key, r.rate, r.pkts)
	}
	return 0
}
