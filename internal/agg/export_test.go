package agg

import "planck/internal/units"

// Helpers the external agg_test package needs.

// ExpireFlows drops merged records idle longer than idle, through each
// switch's core.Collector.ExpireFlows. Returns the number dropped.
func (p *Plane) ExpireFlows(now units.Time, idle units.Duration) int {
	n := 0
	for _, ps := range p.switches {
		n += ps.col.ExpireFlows(now, idle)
	}
	return n
}
