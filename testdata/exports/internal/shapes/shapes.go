// Package shapes is the exported-surface scan's fixture. Each exported
// name is used, or not, in one way that matching by name gets wrong.
package shapes

// Meter and Gauge both declare Config; the program calls only Meter's.
type Meter struct{}

// Config is called by the program.
func (Meter) Config() int { return 1 }

// Gauge is used, but its Config is not: the scan must report it.
type Gauge struct{}

// Config shares its name with a used method and is itself unused.
func (Gauge) Config() int { return 2 }

// Square's Area is reached only through an interface conversion, so it
// is used.
type Square struct{ Side float64 }

// Area is the interface method the program calls.
func (s Square) Area() float64 { return s.Side * s.Side }

// Orphan is named only by its own receivers: the scan must report it
// and its method.
type Orphan struct{ n int }

// Bump is never called.
func (o *Orphan) Bump() { o.n++ }
