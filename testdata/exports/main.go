// Command fixture uses the shapes and knobs packages in the ways the
// exported-surface and config-knob scans must tell apart.
package main

import (
	"fixture/internal/knobs"
	"fixture/internal/shapes"
)

// area reaches Area only through a conversion to an anonymous interface.
func area(s interface{ Area() float64 }) float64 { return s.Area() }

func main() {
	var g shapes.Gauge
	println(shapes.Meter{}.Config(), area(shapes.Square{Side: 2}), g == shapes.Gauge{})

	var f knobs.Frame
	f.Window = 4
	var p knobs.ProbeConfig
	var gc knobs.GaugeConfig
	println(f.Window, p.Depth, gc.Window, knobs.FastMeter().Burst)
}
