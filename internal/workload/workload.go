// Package workload generates and runs the traffic patterns of §7.1 —
// Stride(k), Shuffle, Random Bijection, Random, and Staggered Prob — and
// collects the metrics the paper reports: per-flow average throughput
// (Figs. 14, 17, 18b) and per-host shuffle completion times (Fig. 18a).
package workload

import (
	"fmt"
	"math/rand"

	"planck/internal/lab"
	"planck/internal/sim"
	"planck/internal/stats"
	"planck/internal/tcpsim"
	"planck/internal/topo"
	"planck/internal/units"
)

// Flow is one transfer request.
type Flow struct {
	Src, Dst int
	Size     int64
	Start    units.Duration
}

// Stride returns the stride(k) pattern: host x sends to (x+k) mod n.
func Stride(n, k int, size int64) []Flow {
	flows := make([]Flow, n)
	for i := 0; i < n; i++ {
		flows[i] = Flow{Src: i, Dst: (i + k) % n, Size: size}
	}
	return flows
}

// RandomBijection returns a random permutation with no fixed points.
func RandomBijection(n int, size int64, rng *rand.Rand) []Flow {
	perm := rng.Perm(n)
	for hasFixedPoint(perm) {
		perm = rng.Perm(n)
	}
	flows := make([]Flow, n)
	for i, d := range perm {
		flows[i] = Flow{Src: i, Dst: d, Size: size}
	}
	return flows
}

func hasFixedPoint(perm []int) bool {
	for i, v := range perm {
		if i == v {
			return true
		}
	}
	return false
}

// RandomUniform returns the "random" pattern: every host picks a uniform
// destination other than itself (hotspots allowed).
func RandomUniform(n int, size int64, rng *rand.Rand) []Flow {
	flows := make([]Flow, n)
	for i := 0; i < n; i++ {
		d := rng.Intn(n - 1)
		if d >= i {
			d++
		}
		flows[i] = Flow{Src: i, Dst: d, Size: size}
	}
	return flows
}

// StaggeredProb returns the staggered-prob(edgeP, podP) pattern for the
// 16-host fat-tree: each host's destination is within its edge switch
// with probability edgeP, within its pod with probability podP, and
// anywhere otherwise (as in Hedera).
func StaggeredProb(n int, size int64, edgeP, podP float64, rng *rand.Rand) []Flow {
	const hostsPerEdge, hostsPerPod = 2, 4
	flows := make([]Flow, n)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		var d int
		switch {
		case r < edgeP:
			d = i ^ 1 // the edge neighbor
		case r < edgeP+podP:
			// Same pod, different edge switch (the cases are disjoint).
			pod := i / hostsPerPod
			for {
				d = pod*hostsPerPod + rng.Intn(hostsPerPod)
				if d/hostsPerEdge != i/hostsPerEdge {
					break
				}
			}
		default:
			for {
				d = rng.Intn(n)
				if d/hostsPerPod != i/hostsPerPod {
					break
				}
			}
		}
		_ = hostsPerEdge
		flows[i] = Flow{Src: i, Dst: d, Size: size}
	}
	return flows
}

// Result aggregates a run's outcome.
type Result struct {
	// Goodputs holds each completed flow's size/duration in bits/s.
	Goodputs *stats.Sample
	// Durations holds completed flow durations in seconds.
	Durations *stats.Sample
	// HostCompletion holds, for shuffles, each host's completion time in
	// seconds.
	HostCompletion *stats.Sample
	// Completed and Total count flows.
	Completed, Total int
	// FinishedAt is when the last flow completed.
	FinishedAt units.Time
}

// AvgGoodput returns the mean per-flow throughput (the paper's headline
// metric).
func (r *Result) AvgGoodput() units.Rate { return units.Rate(r.Goodputs.Mean()) }

const (
	// StartJitter uniformly staggers flow starts, as launch scripts on a
	// real testbed do.
	StartJitter = 2 * units.Millisecond
	// BasePort numbers flows' destination ports from here.
	BasePort uint16 = 5001
)

// RunConfig tunes a run.
type RunConfig struct {
	// Timeout aborts the run (default 120 s of virtual time).
	Timeout units.Duration
}

func (c *RunConfig) fill() {
	if c.Timeout == 0 {
		c.Timeout = 120 * units.Duration(units.Second)
	}
}

// Run starts the flows on the lab and drives the simulation until all
// complete or the timeout passes.
func Run(l *lab.Lab, flows []Flow, cfg RunConfig) (*Result, error) {
	cfg.fill()
	res := &Result{
		Goodputs:       stats.NewSample(len(flows)),
		Durations:      stats.NewSample(len(flows)),
		HostCompletion: &stats.Sample{},
		Total:          len(flows),
	}
	remaining := len(flows)
	for i, f := range flows {
		f := f
		if f.Src == f.Dst {
			return nil, fmt.Errorf("workload: flow %d is a self-loop", i)
		}
		start := units.Time(f.Start).Add(units.Duration(l.Rng.Int63n(int64(StartJitter))))
		port := BasePort + uint16(i%60000)
		l.Eng.Schedule(start, simCallback(func(now units.Time) error {
			c, err := l.Hosts[f.Src].StartFlow(now, topo.HostIP(f.Dst), port, f.Size, int32(i))
			if err != nil {
				return err
			}
			c.OnComplete = func(done units.Time, conn *tcpsim.Conn) {
				res.Goodputs.Add(float64(conn.Goodput()))
				res.Durations.Add(conn.Duration().Seconds())
				res.Completed++
				remaining--
				if done > res.FinishedAt {
					res.FinishedAt = done
				}
			}
			return nil
		}), nil)
	}
	deadline := units.Time(cfg.Timeout)
	step := units.Duration(10 * units.Millisecond)
	for l.Eng.Now() < deadline && remaining > 0 {
		l.Eng.RunUntil(l.Eng.Now().Add(step))
	}
	return res, nil
}

// RunShuffle performs the §7.1 shuffle: every host sends size bytes to
// every other host in random order, fanout transfers at a time. The
// result's HostCompletion sample holds per-host finish times.
func RunShuffle(l *lab.Lab, size int64, fanout int, cfg RunConfig, rng *rand.Rand) (*Result, error) {
	cfg.fill()
	n := len(l.Hosts)
	res := &Result{
		Goodputs:       stats.NewSample(n * (n - 1)),
		Durations:      stats.NewSample(n * (n - 1)),
		HostCompletion: stats.NewSample(n),
		Total:          n * (n - 1),
	}
	remaining := n * (n - 1)

	type hostState struct {
		queue   []int // destinations not yet started
		pending int   // in-flight transfers
		port    uint16
	}
	states := make([]*hostState, n)
	for i := 0; i < n; i++ {
		peers := make([]int, 0, n-1)
		for d := 0; d < n; d++ {
			if d != i {
				peers = append(peers, d)
			}
		}
		rng.Shuffle(len(peers), func(a, b int) { peers[a], peers[b] = peers[b], peers[a] })
		states[i] = &hostState{queue: peers, port: BasePort}
	}

	var startNext func(src int, now units.Time) error
	startNext = func(src int, now units.Time) error {
		st := states[src]
		if len(st.queue) == 0 {
			if st.pending == 0 {
				res.HostCompletion.Add(now.Seconds())
			}
			return nil
		}
		dst := st.queue[0]
		st.queue = st.queue[1:]
		st.pending++
		port := st.port
		st.port++
		c, err := l.Hosts[src].StartFlow(now, topo.HostIP(dst), port, size, int32(src))
		if err != nil {
			return err
		}
		c.OnComplete = func(done units.Time, conn *tcpsim.Conn) {
			res.Goodputs.Add(float64(conn.Goodput()))
			res.Durations.Add(conn.Duration().Seconds())
			res.Completed++
			remaining--
			st.pending--
			if done > res.FinishedAt {
				res.FinishedAt = done
			}
			if err := startNext(src, done); err != nil {
				panic(err)
			}
		}
		return nil
	}

	for i := 0; i < n; i++ {
		i := i
		start := units.Duration(l.Rng.Int63n(int64(StartJitter)))
		l.Eng.Schedule(units.Time(start), simCallback(func(now units.Time) error {
			for k := 0; k < fanout; k++ {
				if err := startNext(i, now); err != nil {
					return err
				}
			}
			return nil
		}), nil)
	}
	deadline := units.Time(cfg.Timeout)
	step := units.Duration(10 * units.Millisecond)
	for l.Eng.Now() < deadline && remaining > 0 {
		l.Eng.RunUntil(l.Eng.Now().Add(step))
	}
	return res, nil
}

// simCallback adapts an error-returning launch function to a sim handler;
// launch errors (missing ARP entries, bad hosts) are configuration bugs,
// so they panic rather than pass silently.
func simCallback(fn func(now units.Time) error) sim.Callback {
	return sim.Callback(func(now units.Time) {
		if err := fn(now); err != nil {
			panic(err)
		}
	})
}
