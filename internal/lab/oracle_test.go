package lab

import (
	"fmt"
	"reflect"
	"testing"

	"planck/internal/core"
	"planck/internal/packet"
	"planck/internal/routing"
	"planck/internal/topo"
	"planck/internal/units"
)

// The serial-equivalence oracle. A real testbed run — TCP slow start,
// congestion on a shared egress link, flow FINs, a UDP CBR stream, and
// oversubscribed mirror drops — is captured at the collector's NIC via
// the OnFrame tap, giving a deterministic sample stream with exactly the
// timestamps the live collector saw. That one stream is then replayed
// through a fresh Collector one Ingest at a time and through another in
// IngestBatch calls, with a deterministic mid-replay ExpireFlows; every
// observable output of the batched replay must match the per-sample one
// exactly.

// capturedStream is a replayable record of every sample delivered to a
// collector node, stored in one flat buffer to keep capture cheap.
type capturedStream struct {
	times []units.Time
	offs  []int // len(times)+1 offsets into buf
	buf   []byte
}

func (cs *capturedStream) add(at units.Time, frame []byte) {
	if len(cs.offs) == 0 {
		cs.offs = append(cs.offs, 0)
	}
	cs.times = append(cs.times, at)
	cs.buf = append(cs.buf, frame...)
	cs.offs = append(cs.offs, len(cs.buf))
}

func (cs *capturedStream) frame(i int) []byte { return cs.buf[cs.offs[i]:cs.offs[i+1]] }
func (cs *capturedStream) n() int             { return len(cs.times) }

func (cs *capturedStream) frames() [][]byte {
	out := make([][]byte, cs.n())
	for i := range out {
		out[i] = cs.frame(i)
	}
	return out
}

// captureTestbedStream drives the shared-bottleneck scenario and records
// switch 0's sample stream.
func captureTestbedStream(t *testing.T) (*capturedStream, core.Config, core.RouteResolver) {
	t.Helper()
	net := topo.SingleSwitch("sw0", 4, units.Rate10G, true)
	l, err := New(Options{Net: net, Mirror: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cs := &capturedStream{}
	l.Collectors[0].OnFrame = cs.add

	// Three TCP flows converge on host 3 (their shared egress runs at
	// ~100% > the 0.9 threshold), one short flow FINs early, and a UDP
	// CBR stream adds non-TCP samples.
	for i := 0; i < 3; i++ {
		if _, err := l.Hosts[i].StartFlow(0, topo.HostIP(3), uint16(5001+i), 4<<20, int32(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Hosts[1].StartFlow(0, topo.HostIP(2), 6001, 256<<10, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Hosts[2].StartCBR(0, topo.HostIP(0), 7001, 1000, units.Rate(500*units.Mbps), 11); err != nil {
		t.Fatal(err)
	}
	l.Run(120 * units.Millisecond)

	if cs.n() < 5000 {
		t.Fatalf("capture too small to exercise the pipeline: %d samples", cs.n())
	}
	ccfg := core.Config{SwitchName: "sw0", NumPorts: len(net.Ports[0]), LinkRate: net.LineRate}
	return cs, ccfg, routing.NewView(routing.NewStore(net), 0)
}

// oracleReport is everything observable about one replay.
type oracleReport struct {
	stats      core.Stats
	expired    int
	utils      []units.Rate
	rates      map[string]units.Rate
	events     []string
	boundaries []string
}

func renderEvent(ev core.CongestionEvent) string {
	return fmt.Sprintf("t=%d %s port=%d util=%d cap=%d flows=%+v",
		ev.Time, ev.SwitchName, ev.Port, ev.Util, ev.Capacity, ev.Flows)
}

// replayStream pushes the captured stream through col — one Ingest per
// sample when batch is 1, IngestBatch calls of up to batch samples
// otherwise — with a deterministic ExpireFlows right after the midpoint
// sample, then snapshots every observable output.
func replayStream(t *testing.T, cs *capturedStream, ccfg core.Config, mapper core.RouteResolver, col *core.Collector, batch int) oracleReport {
	t.Helper()
	rep := oracleReport{rates: map[string]units.Rate{}, utils: make([]units.Rate, ccfg.NumPorts)}
	col.SetPortMapper(mapper)
	col.Subscribe(func(ev core.CongestionEvent) {
		rep.events = append(rep.events, renderEvent(ev))
	})
	col.SubscribeFlowBoundaries(func(at units.Time, key packet.FlowKey, kind core.BoundaryKind) {
		rep.boundaries = append(rep.boundaries, fmt.Sprintf("t=%d %s kind=%d", at, key, kind))
	})
	frames := cs.frames()
	mid := cs.n() / 2
	for lo := 0; lo < cs.n(); {
		hi := min(lo+batch, cs.n())
		if lo <= mid && mid < hi {
			hi = mid + 1 // no batch straddles the expiry
		}
		var err error
		if batch == 1 {
			err = col.Ingest(cs.times[lo], frames[lo])
		} else {
			err = col.IngestBatch(cs.times[lo:hi], frames[lo:hi])
		}
		if err != nil {
			t.Fatalf("samples %d..%d: %v", lo, hi, err)
		}
		if hi == mid+1 {
			rep.expired = col.ExpireFlows(cs.times[mid], 2*units.Millisecond)
		}
		lo = hi
	}
	rep.stats = col.Stats()
	for p := 0; p < ccfg.NumPorts; p++ {
		rep.utils[p] = col.LinkUtilization(p)
	}
	col.Flows(func(f *core.FlowState) {
		r, _ := f.Rate()
		rep.rates[f.Key.String()] = r
	})
	return rep
}

func TestLabSerialEquivalenceOracle(t *testing.T) {
	cs, ccfg, mapper := captureTestbedStream(t)

	serial := replayStream(t, cs, ccfg, mapper, core.New(ccfg), 1)
	if serial.stats.Samples != int64(cs.n()) {
		t.Fatalf("serial replay ingested %d of %d", serial.stats.Samples, cs.n())
	}
	if len(serial.events) == 0 {
		t.Fatal("scenario produced no congestion events; oracle would be vacuous")
	}
	if len(serial.boundaries) < 4 {
		t.Fatalf("scenario produced %d flow boundaries", len(serial.boundaries))
	}
	if serial.expired == 0 {
		t.Fatal("mid-replay expiry removed nothing; oracle would be vacuous")
	}

	got := replayStream(t, cs, ccfg, mapper, core.New(ccfg), 64)
	if got.stats != serial.stats {
		t.Errorf("batched stats %+v != serial %+v", got.stats, serial.stats)
	}
	if got.expired != serial.expired {
		t.Errorf("batched expired %d != serial %d", got.expired, serial.expired)
	}
	if !reflect.DeepEqual(got.utils, serial.utils) {
		t.Errorf("batched utils %v != serial %v", got.utils, serial.utils)
	}
	if !reflect.DeepEqual(got.rates, serial.rates) {
		t.Errorf("batched flow rates diverge:\n got %v\nwant %v", got.rates, serial.rates)
	}
	if !reflect.DeepEqual(got.events, serial.events) {
		t.Errorf("batched events diverge (%d vs %d):\n got %v\nwant %v",
			len(got.events), len(serial.events), got.events, serial.events)
	}
	if !reflect.DeepEqual(got.boundaries, serial.boundaries) {
		t.Errorf("batched boundaries diverge (%d vs %d)", len(got.boundaries), len(serial.boundaries))
	}
}
