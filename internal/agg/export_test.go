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

// LinkUtilization sums the fresh flow rates merged onto (sw, port) as
// of the plane's current time — the network-wide answer to the query a
// single collector answers for its own switch.
func (p *Plane) LinkUtilization(sw, port int) units.Rate {
	ps := p.switches[int32(sw)]
	if ps == nil {
		return 0
	}
	return ps.col.LinkUtilizationAt(port, p.now)
}
