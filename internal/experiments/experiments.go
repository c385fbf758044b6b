// Package experiments reproduces every table and figure in the paper's
// evaluation (§5, §7, §9.1). Each experiment is a function taking typed
// parameters and returning structured results plus a rendered table, so
// the same code backs the unit tests and the cmd/planck-bench tool.
//
// Absolute numbers depend on the simulated substrate; what the harness is
// built to reproduce is the paper's shape: who wins, by what factor, and
// where the crossovers fall. EXPERIMENTS.md records paper-vs-measured for
// every experiment here.
package experiments

import (
	"fmt"
	"strings"

	"planck/internal/controller"
	"planck/internal/core"
	"planck/internal/lab"
	"planck/internal/switchsim"
	"planck/internal/te"
	"planck/internal/topo"
	"planck/internal/units"
)

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render produces an aligned plain-text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Scheme names the five routing schemes of §7.1.
type Scheme int

// Schemes.
const (
	SchemeStatic Scheme = iota
	SchemePoll1s
	SchemePoll01s
	SchemePlanckTE
	SchemeOptimal
)

// String implements fmt.Stringer with the paper's names.
func (s Scheme) String() string {
	switch s {
	case SchemeStatic:
		return "Static"
	case SchemePoll1s:
		return "Poll-1s"
	case SchemePoll01s:
		return "Poll-0.1s"
	case SchemePlanckTE:
		return "PlanckTE"
	case SchemeOptimal:
		return "Optimal"
	}
	return "unknown"
}

// AllSchemes lists the schemes in the paper's presentation order.
var AllSchemes = []Scheme{SchemeStatic, SchemePoll1s, SchemePoll01s, SchemePlanckTE, SchemeOptimal}

// SchemeLab builds the testbed for a scheme: the 16-host fat-tree for
// everything except Optimal, which runs all 16 hosts on one non-blocking
// switch (§7.1). The returned cleanup stops any pollers.
func SchemeLab(scheme Scheme, seed int64) (*lab.Lab, func(), error) {
	return SchemeLabWith(scheme, seed, nil)
}

// SchemeLabWith is SchemeLab with a hook that may adjust the lab
// options before construction — the seam tools use to attach a
// control-loop tracer or other observers without forking the
// experiment configuration.
func SchemeLabWith(scheme Scheme, seed int64, adjust func(*lab.Options)) (*lab.Lab, func(), error) {
	if scheme == SchemeOptimal {
		net := topo.SingleSwitch("optimal", 16, units.Rate10G, false)
		opts := lab.Options{Net: net, Seed: seed}
		if adjust != nil {
			adjust(&opts)
		}
		l, err := lab.New(opts)
		return l, func() {}, err
	}
	net := topo.FatTree16(units.Rate10G)
	opts := lab.Options{
		Net:    net,
		Mirror: scheme == SchemePlanckTE,
		Seed:   seed,
	}
	if adjust != nil {
		adjust(&opts)
	}
	l, err := lab.New(opts)
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() {}
	switch scheme {
	case SchemePoll1s:
		g := te.NewGFF(l.Ctrl, te.GFFConfig{Interval: units.Duration(units.Second)})
		cleanup = g.Stop
	case SchemePoll01s:
		g := te.NewGFF(l.Ctrl, te.GFFConfig{Interval: 100 * units.Millisecond})
		cleanup = g.Stop
	case SchemePlanckTE:
		te.NewPlanckTE(l.Ctrl, te.DefaultPlanckTEConfig())
	}
	return l, cleanup, nil
}

// SwitchKind selects the hardware profile for microbenchmarks.
type SwitchKind int

// Switch kinds.
const (
	SwitchG8264      SwitchKind = iota // 10 Gbps
	SwitchPronto3290                   // 1 Gbps
)

// String implements fmt.Stringer.
func (k SwitchKind) String() string {
	if k == SwitchPronto3290 {
		return "Pronto 3290 (1Gb)"
	}
	return "IBM G8264 (10Gb)"
}

// Rate returns the line rate for the kind.
func (k SwitchKind) Rate() units.Rate {
	if k == SwitchPronto3290 {
		return units.Rate1G
	}
	return units.Rate10G
}

// microLabOptions builds single-switch testbed options for a kind,
// optionally shrinking the monitor-port buffer to the "minbuffer"
// configuration of Table 1.
func microLabOptions(kind SwitchKind, hosts int, minBuffer bool, seed int64) lab.Options {
	net := topo.SingleSwitch("sw0", hosts, kind.Rate(), true)
	cfg := func(name string, ports int) switchsim.Config {
		var c switchsim.Config
		if kind == SwitchPronto3290 {
			c = switchsim.ProfilePronto3290(name, ports)
		} else {
			c = switchsim.ProfileG8264(name, ports)
		}
		if minBuffer {
			c = switchsim.MinBuffer(c)
		}
		return c
	}
	return lab.Options{Net: net, SwitchConfig: cfg, Mirror: true, Seed: seed}
}

// mustLab builds a lab or panics; experiment configuration errors are
// programming bugs.
func mustLab(opts lab.Options) *lab.Lab {
	l, err := lab.New(opts)
	if err != nil {
		panic(err)
	}
	return l
}

// attachTE is a convenience for control-loop experiments.
func attachTE(l *lab.Lab, act te.Actuator) *te.PlanckTE {
	cfg := te.DefaultPlanckTEConfig()
	cfg.Actuate = act
	return te.NewPlanckTE(l.Ctrl, cfg)
}

// ctrlConfig exposes the default controller latency model for reports.
func ctrlConfig() controller.Config { return controller.DefaultConfig() }

// sinkEvents subscribes a no-op consumer so collectors compute events.
func sinkEvents(l *lab.Lab) *int {
	n := new(int)
	l.Ctrl.Subscribe(func(core.CongestionEvent) { *n++ })
	return n
}
