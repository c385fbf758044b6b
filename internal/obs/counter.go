package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; incrementing never allocates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotonic; this is
// not enforced, matching the hot-path budget).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// IncRelaxed adds one using an atomic load + store instead of an atomic
// read-modify-write. Safe only when a single goroutine performs all
// writes to the counter (concurrent Value readers are fine). It does not
// shed the fence: on amd64 the atomic store is an XCHG, as locked as
// Inc's LOCK XADD, and like it waits for the core's pending stores; what
// it saves is the read-modify-write. Mixing IncRelaxed with Inc/Add from
// other goroutines loses updates.
func (c *Counter) IncRelaxed() { c.v.Store(c.v.Load() + 1) }

// AddRelaxed is IncRelaxed for a batch of n. Same single-writer
// contract.
func (c *Counter) AddRelaxed(n int64) { c.v.Store(c.v.Load() + n) }

// Gauge is a settable atomic level. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a callback gauge: the function is invoked at snapshot
// time. It must not block; non-atomic reads it performs are best-effort
// when the owning goroutine is concurrently mutating them.
type GaugeFunc func() float64
