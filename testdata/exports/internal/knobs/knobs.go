// Package knobs is the config-knob scan's fixture. Each exported field
// of a *Config type is written, or not, in one way that counting test
// writers or matching fields by name gets wrong.
package knobs

// ProbeConfig's Depth is set only by knobs_test.go: the scan must
// report it.
type ProbeConfig struct{ Depth int }

// GaugeConfig's Window shares its name with Frame's, which the program
// assigns; nothing writes GaugeConfig's: the scan must report it.
type GaugeConfig struct{ Window int }

// Frame is not a knob type; the program assigns its Window.
type Frame struct{ Window int }

// MeterConfig's Rate is set by a non-default constructor in this
// package, so it is a knob; its Burst is filled only by
// DefaultMeterConfig: the scan must report Burst and not Rate.
type MeterConfig struct {
	Rate  int
	Burst int
}

// DefaultMeterConfig fills the values every meter would otherwise use.
func DefaultMeterConfig() MeterConfig { return MeterConfig{Rate: 1, Burst: 2} }

// FastMeter is a second variant: a write that makes Rate a knob.
func FastMeter() MeterConfig {
	c := DefaultMeterConfig()
	c.Rate = 10
	return c
}
