// Extensions: the paper's future-work items, live — retransmission-rate
// inference from duplicate sequence numbers (§3.2.2), throughput
// estimation for UDP streams carrying application packet counters
// (§3.2.2), and missing-packet inference over a sampled vantage-point
// trace (§6.1).
package main

import (
	"fmt"
	"log"

	"planck"
	"planck/internal/core"
	"planck/internal/lab"
	"planck/internal/tcpsim"
	"planck/internal/topo"
	"planck/internal/units"
)

func main() {
	// A single-switch testbed with retransmission tracking, UDP sequence
	// parsing, and a vantage ring enabled on the collector.
	net := topo.SingleSwitch("sw0", 6, 10*planck.Gbps, true)
	tb, err := lab.New(lab.Options{
		Net:    net,
		Mirror: true,
		Seed:   7,
		CollectorConfig: core.Config{
			TrackRetransmits: true,
			UDPSeqEnabled:    true,
			RingPackets:      8192,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two TCP flows to the SAME destination: the shared port drops
	// packets, so both flows retransmit.
	c1, _ := tb.Hosts[0].StartFlow(0, planck.HostIP(2), 5001, 1<<30, 1)
	c2, _ := tb.Hosts[1].StartFlow(0, planck.HostIP(2), 5002, 1<<30, 2)

	// One UDP stream with an application-level packet counter.
	if _, err := tb.Hosts[3].StartCBR(0, planck.HostIP(4), 7000, 1000, 2*planck.Gbps, 3); err != nil {
		log.Fatal(err)
	}

	tb.Run(150 * units.Millisecond)
	col := tb.Collector(0)

	fmt.Println("== retransmission-rate inference (§3.2.2) ==")
	for _, c := range []*tcpsim.Conn{c1, c2} {
		fs := col.Flow(c.FlowKey())
		if fs == nil {
			continue
		}
		rr, ok := fs.RetransmitRate()
		fmt.Printf("  %-45s inferred rtx rate %v (ok=%v); sender actually retransmitted %d segments\n",
			c.FlowKey(), rr, ok, c.Retransmits)
	}

	fmt.Println("\n== UDP packet-counter estimation (§3.2.2) ==")
	col.Flows(func(fs *core.FlowState) {
		if fs.Pkt() != nil {
			r, _ := fs.Rate()
			fmt.Printf("  %-45s estimated %v (true offered: 2 Gbps of payload)\n", fs.Key, r)
		}
	})

	fmt.Println("\n== vantage-point gap inference (§6.1) ==")
	reports, err := core.AnalyzeRing(col.RingBuffer())
	if err != nil {
		log.Fatal(err)
	}
	if len(reports) > 4 {
		reports = reports[:4]
	}
	fmt.Print(core.FormatReports(reports))
}
