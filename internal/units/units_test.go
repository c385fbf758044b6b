package units

import (
	"testing"
	"testing/quick"
)

func TestSerialize(t *testing.T) {
	tests := []struct {
		rate Rate
		n    int
		want Duration
	}{
		{Rate10G, 1250, Microsecond},       // 10,000 bits at 10G
		{Rate1G, 1250, 10 * Microsecond},   // same at 1G
		{Rate10G, 1538, 1231 * Nanosecond}, // full frame + overheads: 12304 bits, ceil
		{Rate10G, 0, 0},
		{0, 1500, 0},
	}
	for _, tc := range tests {
		if got := tc.rate.Serialize(tc.n); got != tc.want {
			t.Errorf("(%v).Serialize(%d) = %v, want %v", tc.rate, tc.n, got, tc.want)
		}
	}
}

func TestSerializeCeils(t *testing.T) {
	// 1 byte at 3 bps = 8/3 s, must round up.
	got := Rate(3).Serialize(1)
	want := Duration(2666666667)
	if got != want {
		t.Fatalf("Serialize(1)@3bps = %d, want %d", got, want)
	}
}

func TestRateOfInvertsSerialize(t *testing.T) {
	// For sizeable transfers the average rate over the serialization time
	// recovers the line rate to within rounding.
	f := func(kb uint16) bool {
		n := int64(kb)*1000 + 1000
		d := Rate10G.Serialize(int(n))
		r := RateOf(n, d)
		diff := float64(r-Rate10G) / float64(Rate10G)
		return diff < 0.001 && diff > -0.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(5 * Second)
	t1 := t0.Add(250 * Microsecond)
	if got := t1.Sub(t0); got != 250*Microsecond {
		t.Fatalf("Sub = %v", got)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatal("ordering broken")
	}
	if s := t1.Seconds(); s < 5.0002 || s > 5.0003 {
		t.Fatalf("Seconds = %v", s)
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Duration(500).String(), "500ns"},
		{(250 * Microsecond).String(), "250µs"},
		{(4200 * Microsecond).String(), "4.2ms"},
		{(2 * Second).String(), "2s"},
		{Rate10G.String(), "10Gbps"},
		{(250 * Mbps).String(), "250Mbps"},
		{BytesString(50 * MiB), "50MiB"},
		{BytesString(1536), "1.5KiB"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func TestRateOfZeroDuration(t *testing.T) {
	if RateOf(1000, 0) != 0 {
		t.Fatal("RateOf with zero duration should be 0")
	}
}
