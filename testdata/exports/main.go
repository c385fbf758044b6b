// Command fixture uses the shapes package in the ways the exported-surface
// scan must tell apart.
package main

import "fixture/internal/shapes"

// area reaches Area only through a conversion to an anonymous interface.
func area(s interface{ Area() float64 }) float64 { return s.Area() }

func main() {
	var g shapes.Gauge
	println(shapes.Meter{}.Config(), area(shapes.Square{Side: 2}), g == shapes.Gauge{})
}
