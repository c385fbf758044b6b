package knobs

import "testing"

// A test's write of Depth is no product use of it.
func TestProbe(t *testing.T) {
	if c := (ProbeConfig{Depth: 3}); c.Depth != 3 {
		t.Fatal(c)
	}
}
