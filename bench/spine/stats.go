package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sampler keeps a bounded, evenly thinned record of a value stream:
// once full it drops every other kept value and from then on keeps
// every second offered one, so memory stays bounded while quantiles
// stay representative of the whole run.
type sampler struct {
	v      []float64
	stride int
	skip   int
	n      int64 // values offered
}

const samplerCap = 1 << 18

func (s *sampler) add(x float64) {
	s.n++
	if s.stride == 0 {
		s.stride = 1
	}
	if s.skip++; s.skip < s.stride {
		return
	}
	s.skip = 0
	if len(s.v) == samplerCap {
		half := s.v[:0]
		for i := 0; i < samplerCap; i += 2 {
			half = append(half, s.v[i])
		}
		s.v = half
		s.stride *= 2
	}
	s.v = append(s.v, x)
}

// sorted returns the kept values in ascending order (a copy).
func (s *sampler) sorted() []float64 {
	out := append([]float64(nil), s.v...)
	sort.Float64s(out)
	return out
}

func (s *sampler) quantile(q float64) float64 { return quantileOf(s.v, q) }

func (s *sampler) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

// quantile reads the q-quantile of an ascending slice (nearest rank);
// 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds is the CPU time the hypervisor has kept from this
// machine's processors so far (the steal column of /proc/stat, all
// processors added up); 0 where the kernel does not account for it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64)
	return ticks / 100 // USER_HZ
}

// rssNowMB reads the process's current resident set.
func rssNowMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// sleepUntil blocks the calling OS thread until the wall clock reaches
// t. It uses nanosleep directly: Go's timers round short sleeps up to
// about a millisecond on this kernel, far coarser than the generator's
// 200 µs burst period.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR just re-checks the clock
	}
}

// hostProbes measures the two host facts that bound what the loop
// workload can resolve: how far a 200 µs Go sleep overshoots (median,
// µs) and what one clock read costs (ns).
func hostProbes() (sleepOvershootP50us, timeNowNs float64) {
	var over []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		time.Sleep(200 * time.Microsecond)
		over = append(over, float64(time.Since(t0)-200*time.Microsecond)/1e3)
	}
	const reads = 200000
	t0 := time.Now()
	var sink time.Time
	for i := 0; i < reads; i++ {
		sink = time.Now()
	}
	_ = sink
	return median(over), float64(time.Since(t0)) / reads
}
