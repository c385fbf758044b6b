package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-run", "-transport", "carrier-pigeon"},
		{"-run", "-k", "3"},
		{"-run", "-k", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed a report on a usage error:\n%s", args, stdout.String())
		}
	}
}

// TestPaperTable: with no -run the command prints §9.1's deployment
// table (59,582 hosts on 344 collector servers), and -ports adds the
// custom radix's rows.
func TestPaperTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{
		"== Section 9.1: deployment scalability ==",
		"fat-tree (64-port, 1 monitor)       59582  4805      344                0.58%",
		"Jellyfish (same hosts)              59582  3505      251                0.42%",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, stdout.String())
		}
	}
	stdout.Reset()
	if code := run(context.Background(), []string{"-ports", "32", "-monitor", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-ports: exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{"custom fat-tree (32-port, 2 monitor): ", "custom Jellyfish (same hosts): "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-ports output lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestFleetPass runs the k=4 fleet end to end, in process and over the
// simulated lossy wire, and expects every gate to pass: all 16 flows
// complete, no duplicate event, and a full control loop in every pod.
// The default seed 7 leaves a pod of the k=4 tree without a converged
// loop, so the gate fails there; seed 2 closes all four. The plane's
// link cooldowns must also have suppressed some candidates: the
// summary's figure is the plane's real count, not a constant 0.
func TestFleetPass(t *testing.T) {
	for _, transport := range []string{"inproc", "link"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-run", "-k", "4", "-seed", "2", "-transport", transport, "-link-loss", "0.05"}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s\nstdout:\n%s", transport, code, stderr.String(), stdout.String())
		}
		for _, want := range []string{"k=4 fleet pass: 20 vantages, 16/16 flows completed", "pod 3: "} {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%s: report lacks %q:\n%s", transport, want, stdout.String())
			}
		}
		var suppressed int
		if i := strings.Index(stdout.String(), "aggregation plane: "); i < 0 {
			t.Errorf("%s: report lacks the plane summary:\n%s", transport, stdout.String())
		} else if _, err := fmt.Sscanf(stdout.String()[i:], "aggregation plane: %d flows merged, %d events emitted, %d deduped",
			new(int), new(int), &suppressed); err != nil || suppressed <= 0 {
			t.Errorf("%s: plane summary suppressed %d candidates (%v), want > 0:\n%s", transport, suppressed, err, stdout.String())
		}
		if transport == "link" && !strings.Contains(stdout.String(), "vantage link rx: ") {
			t.Errorf("link: report lacks the receiver's totals:\n%s", stdout.String())
		}
	}
}
