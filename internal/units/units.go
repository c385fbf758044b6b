// Package units defines the simulation's base quantities: virtual time,
// data rates, and byte sizes, together with the arithmetic the rest of the
// system needs (serialization delays, rate estimation, unit parsing).
//
// Virtual time is an int64 count of nanoseconds since the start of a
// simulation run. Using a plain integer (rather than time.Time) keeps the
// discrete-event scheduler free of wall-clock coupling and makes runs
// reproducible bit-for-bit.
package units

import (
	"fmt"
	"math"
)

// Time is a virtual timestamp: nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is kept distinct
// from Time so that timestamps and spans cannot be confused in APIs.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the timestamp as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the timestamp with adaptive units for logs.
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as a float64 number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds returns the duration as a float64 number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String renders the duration with adaptive units.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3gµs", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.4gms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.4gs", d.Seconds())
	}
}

// Rate is a data rate in bits per second.
type Rate int64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
	Rate1G            = 1 * Gbps
	Rate10G           = 10 * Gbps
	Rate40G           = 40 * Gbps
	Rate100G          = 100 * Gbps
)

// Gigabits returns the rate in Gbit/s as a float64.
func (r Rate) Gigabits() float64 { return float64(r) / float64(Gbps) }

// String renders the rate with adaptive units.
func (r Rate) String() string {
	switch {
	case r < 0:
		return "-" + (-r).String()
	case r < Kbps:
		return fmt.Sprintf("%dbps", int64(r))
	case r < Mbps:
		return fmt.Sprintf("%.4gKbps", float64(r)/float64(Kbps))
	case r < Gbps:
		return fmt.Sprintf("%.4gMbps", float64(r)/float64(Mbps))
	default:
		return fmt.Sprintf("%.4gGbps", r.Gigabits())
	}
}

// Serialize returns the time taken to place n bytes on a wire running at
// rate r. It rounds up so that back-to-back transmissions never overlap.
func (r Rate) Serialize(n int) Duration {
	if r <= 0 {
		return 0
	}
	bits := int64(n) * 8
	// ceil(bits * 1e9 / r) without overflow for realistic sizes:
	// bits <= ~1e10, 1e9 multiplier would overflow int64 at ~9.2e18, so
	// bits*1e9 <= 1e19 can overflow. Use math.Ceil on float64 — exact for
	// all packet-scale values (< 2^53).
	return Duration(math.Ceil(float64(bits) * float64(Second) / float64(r)))
}

// RateOf returns the average rate achieved by transferring n bytes in d.
func RateOf(n int64, d Duration) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(n) * 8 / d.Seconds())
}

// Byte sizes.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// BytesString renders a byte count with adaptive binary units.
func BytesString(n int64) string {
	switch {
	case n < 0:
		return "-" + BytesString(-n)
	case n < KiB:
		return fmt.Sprintf("%dB", n)
	case n < MiB:
		return fmt.Sprintf("%.4gKiB", float64(n)/float64(KiB))
	case n < GiB:
		return fmt.Sprintf("%.4gMiB", float64(n)/float64(MiB))
	default:
		return fmt.Sprintf("%.4gGiB", float64(n)/float64(GiB))
	}
}
