package core

import (
	"strings"
	"testing"

	"planck/internal/obs"
	"planck/internal/packet"
	"planck/internal/units"
)

// drive pushes a steady TCP stream plus a few malformed frames through
// the collector.
func driveCollector(t *testing.T, c *Collector, frames int) {
	t.Helper()
	var t0 units.Time
	var seq uint32
	for i := 0; i < frames; i++ {
		if err := c.Ingest(t0, tcpFrame(seq, 1460)); err != nil {
			t.Fatal(err)
		}
		seq += 1460
		t0 = t0.Add(units.Duration(1230))
	}
	_ = c.Ingest(t0, []byte{0xde, 0xad}) // undecodable
}

// TestCollectorRegistersMetrics checks that attaching a registry
// exposes the full pipeline instrument set, labelled by switch.
func TestCollectorRegistersMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{
		SwitchName: "sw0",
		NumPorts:   4,
		LinkRate:   units.Rate10G,
		Metrics:    reg,
	})
	c.SetPortMapper(staticMapper{macB.U64(): 2})
	driveCollector(t, c, 2000)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, name := range []string{
		`planck_collector_samples_total{switch="sw0"} 2001`,
		`planck_collector_decode_errors_total{switch="sw0"} 1`,
		`planck_collector_flow_table_size{switch="sw0"} 1`,
		`planck_collector_rate_updates_total{switch="sw0"}`,
		`planck_collector_ingest_ns_count{switch="sw0"} 2001`,
		`planck_collector_stage_decode_ns_count{switch="sw0"}`,
		`planck_collector_stage_flow_table_ns_count{switch="sw0"}`,
		`planck_collector_stage_estimate_ns_count{switch="sw0"}`,
		`planck_collector_stage_utilization_ns`,
		`planck_collector_stage_dispatch_ns`,
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("exposition missing %q:\n%s", name, text)
		}
	}
	// The stage histograms fill from every sample that reaches them.
	count := map[string]float64{}
	for _, p := range reg.Snapshot() {
		count[p.Name] = p.Value
	}
	for _, stage := range []string{"decode", "flow_table", "estimate"} {
		if n := count[`planck_collector_stage_`+stage+`_ns{switch="sw0"}`]; n == 0 {
			t.Fatalf("stage %s histogram is empty after 2001 samples", stage)
		}
	}
	tm := c.IngestTimings()
	if tm.N() != 2001 || tm.Min() < 0 || tm.Median() <= 0 {
		t.Fatalf("implausible ingest timing: n=%d min=%v median=%v", tm.N(), tm.Min(), tm.Median())
	}
}

// TestCollectorStatsMatchesMetrics: the legacy Stats() snapshot is
// rebuilt from the metric counters and must agree with the exposition.
func TestCollectorStatsMatchesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{
		SwitchName: "sw0",
		NumPorts:   4,
		LinkRate:   units.Rate10G,
		Metrics:    reg,
	})
	c.SetPortMapper(staticMapper{macB.U64(): 2})
	driveCollector(t, c, 1000)

	st := c.Stats()
	if st.Samples != 1001 || st.DecodeErrors != 1 || st.Flows != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.RateUpdates == 0 {
		t.Fatal("no rate updates after 1000 in-order samples")
	}
	// Timing disabled is the no-registry default; with a registry it is on.
	if c.IngestTimings() == nil {
		t.Fatal("registry attach should enable stage timing")
	}
	bare := New(Config{SwitchName: "sw0", NumPorts: 4, LinkRate: units.Rate10G})
	if bare.IngestTimings() != nil {
		t.Fatal("bare collector should not allocate timing histograms")
	}
}

// TestFlowGaugeTracksTable: Stats().Flows reads a gauge published once
// per call rather than once per insert, so whenever an Ingest,
// IngestBatch or ExpireFlows call returns it must equal the table's
// length — after small and large (4,096-flow) batches, the non-monotone
// fallback and an expiry.
func TestFlowGaugeTracksTable(t *testing.T) {
	c := newTestCollector()
	var now units.Time
	next := 0
	newFlow := func() []byte {
		next++
		return packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: macB, DstIP: ipB, SrcPort: 1000, DstPort: 2000,
			SrcIP: packet.IPv4{11, byte(next >> 16), byte(next >> 8), byte(next)},
			Flags: packet.TCPSyn,
		})
	}
	batch := func(n int, reversed bool) {
		t.Helper()
		ts := make([]units.Time, n)
		frames := make([][]byte, n)
		for i := range frames {
			ts[i] = now.Add(units.Duration(i))
			if reversed {
				ts[i] = now.Add(units.Duration(n - i))
			}
			frames[i] = newFlow()
		}
		if err := c.IngestBatch(ts, frames); err != nil && !reversed {
			t.Fatal(err)
		}
		now = now.Add(units.Duration(n + 1))
	}
	check := func(what string, want int) {
		t.Helper()
		if got := c.Stats().Flows; got != want || c.flows.Len() != want {
			t.Fatalf("after %s: Stats().Flows %d, table %d, want %d", what, got, c.flows.Len(), want)
		}
	}
	batch(300, false)
	check("a batch of 300 inserts", 300)
	batch(4096, false)
	batch(500, false)
	check("a batch of 500 inserts on a large table", 300+4096+500)
	batch(50, true) // out of order: the first frame is ingested, the rest refused
	check("a non-monotone batch", 300+4096+501)
	if err := c.Ingest(now, newFlow()); err != nil {
		t.Fatal(err)
	}
	check("one Ingest", 300+4096+502)
	total := 300 + 4096 + 502
	n := c.ExpireFlows(now, 600) // the 500-flow batch and what followed stay
	check("an expiry", total-n)
	if n == 0 || n == total {
		t.Fatalf("the expiry removed %d of %d flows", n, total)
	}
}
