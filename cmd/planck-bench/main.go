// Command planck-bench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports; absolute
// numbers come from the simulated substrate, the shapes from the system
// under test.
//
// Usage:
//
//	planck-bench                         # run everything at default scale
//	planck-bench -experiment table1      # one experiment
//	planck-bench -experiment fig14 -sizes 100MiB,1GiB -runs 3
//	planck-bench -experiment ablations   # the DESIGN.md §5 ablations
//	planck-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"planck/internal/experiments"
	"planck/internal/units"
)

type runner func(seed int64, cfg benchCfg)

type benchCfg struct {
	sizes    []int64
	runs     int
	episodes int
	duration units.Duration
}

var all = map[string]runner{
	"table1": func(seed int64, _ benchCfg) {
		fmt.Print(experiments.Table1(seed).Table().Render())
	},
	"fig2-4": func(seed int64, cfg benchCfg) {
		pts := experiments.MirrorImpact(experiments.MirrorImpactParams{
			Runs: cfg.runs, Seed: seed, Duration: cfg.duration,
		})
		fmt.Print(experiments.MirrorImpactTable(pts).Render())
	},
	"samplelatency": func(seed int64, _ benchCfg) {
		for _, kind := range []experiments.SwitchKind{experiments.SwitchG8264, experiments.SwitchPronto3290} {
			r := experiments.SampleLatency(experiments.SampleLatencyParams{Kind: kind, Seed: seed})
			fmt.Printf("§5.2 %s: sample latency p1=%.0fµs median=%.0fµs p99=%.0fµs (paper: 75-150µs @10G, 80-450µs @1G)\n",
				kind, r.Samples.Quantile(0.01), r.Samples.Median(), r.Samples.Quantile(0.99))
		}
	},
	"fig5-7": func(seed int64, cfg benchCfg) {
		r := experiments.SampleStream(experiments.SampleStreamParams{Flows: 13, Seed: seed, Duration: cfg.duration})
		fmt.Print(experiments.Fig5Table(r).Render())
		fmt.Print(experiments.Fig7Table(r).Render())
		sweep := experiments.Fig6Sweep(nil, cfg.duration, seed)
		fmt.Print(experiments.Fig6Table(sweep).Render())
	},
	"fig8": func(seed int64, cfg benchCfg) {
		fmt.Print(experiments.Fig8(experiments.Fig8Params{Seed: seed, Duration: cfg.duration}).Table().Render())
	},
	"fig9": func(seed int64, cfg benchCfg) {
		pts := experiments.Fig9(experiments.Fig9Params{Seed: seed, Duration: cfg.duration})
		fmt.Print(experiments.Fig9Table(pts).Render())
	},
	"fig10": func(seed int64, _ benchCfg) {
		series := experiments.Fig10(experiments.Fig10Params{Seed: seed})
		fmt.Print(experiments.Fig10Table(series).Render())
		fmt.Println("time series (ms, rolling Gbps, planck Gbps):")
		for i, pt := range series {
			if i%4 == 0 {
				fmt.Printf("  %6.2f  %6.2f  %6.2f\n",
					units.Duration(pt.Time).Milliseconds(), pt.Rolling.Gigabits(), pt.Planck.Gigabits())
			}
		}
	},
	"fig11": func(seed int64, cfg benchCfg) {
		pts := experiments.Fig11(experiments.Fig11Params{Seed: seed, Duration: cfg.duration})
		fmt.Print(experiments.Fig11Table(pts).Render())
	},
	"fig12": func(seed int64, _ benchCfg) {
		fmt.Print(experiments.Fig12(seed).Table().Render())
	},
	"fig14": func(seed int64, cfg benchCfg) {
		cells := experiments.Fig14(experiments.Fig14Params{
			Sizes: cfg.sizes, Runs: cfg.runs, Seed: seed,
		})
		fmt.Print(experiments.Fig14Table(cells).Render())
	},
	"fig15": func(seed int64, _ benchCfg) {
		r := experiments.Fig15(seed)
		fmt.Print(r.Table().Render())
		fmt.Println("throughput series (ms, flow1 Gbps, flow2 Gbps):")
		for i, pt := range r.Series {
			if i%4 == 0 {
				fmt.Printf("  %6.2f  %6.2f  %6.2f\n",
					units.Duration(pt.Time).Milliseconds(), pt.Flow1.Gigabits(), pt.Flow2.Gigabits())
			}
		}
	},
	"fig16": func(seed int64, cfg benchCfg) {
		r := experiments.Fig16(experiments.Fig16Params{Episodes: cfg.episodes, Seed: seed})
		fmt.Print(r.Table().Render())
	},
	"fig17": func(seed int64, cfg benchCfg) {
		cells := experiments.Fig17(experiments.Fig17Params{Sizes: cfg.sizes, Seed: seed})
		fmt.Print(experiments.Fig17Table(cells).Render())
	},
	"fig18": func(seed int64, cfg benchCfg) {
		size := int64(100 << 20)
		if len(cfg.sizes) > 0 {
			size = cfg.sizes[0]
		}
		r := experiments.Fig18(experiments.Fig18Params{Size: size, Seed: seed})
		fmt.Print(r.Table(nil).Render())
	},
	"scalability": func(int64, benchCfg) {
		fmt.Print(experiments.Scalability().Render())
	},
	"extensions": func(seed int64, _ benchCfg) {
		fmt.Print(experiments.PrioritySamplingTable(experiments.PrioritySampling(seed)).Render())
		fmt.Print(experiments.TargetRateTable(experiments.TargetRateMirroring(seed)).Render())
	},
	"governor": func(seed int64, cfg benchCfg) {
		pts := experiments.GovernorAccuracy(experiments.GovAccuracyParams{Seed: seed, Duration: cfg.duration})
		fmt.Print(experiments.GovernorAccuracyTable(pts).Render())
		fmt.Print(experiments.GovernorEpisodeTable(experiments.GovernorEpisode(seed)).Render())
	},
	"ablations": func(seed int64, _ benchCfg) {
		fmt.Print(experiments.Ablations(seed).Render())
	},
}

// order fixes the presentation sequence for -experiment all.
var order = []string{
	"table1", "fig2-4", "samplelatency", "fig5-7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig15", "fig16", "fig17", "fig14",
	"fig18", "scalability", "extensions", "governor", "ablations",
}

func parseSizes(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		mult := int64(1)
		switch {
		case strings.HasSuffix(part, "GiB"):
			mult = 1 << 30
			part = strings.TrimSuffix(part, "GiB")
		case strings.HasSuffix(part, "MiB"):
			mult = 1 << 20
			part = strings.TrimSuffix(part, "MiB")
		case strings.HasSuffix(part, "KiB"):
			mult = 1 << 10
			part = strings.TrimSuffix(part, "KiB")
		}
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v*mult)
	}
	return out, nil
}

func main() {
	exp := flag.String("experiment", "all", "experiment id (see -list)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	runs := flag.Int("runs", 0, "repetitions where applicable (0 = default)")
	episodes := flag.Int("episodes", 0, "fig16 episodes (0 = default)")
	sizesFlag := flag.String("sizes", "", "comma-separated flow sizes, e.g. 100MiB,1GiB")
	durMs := flag.Int("duration-ms", 0, "per-run duration override in ms (0 = default)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		ids := make([]string, 0, len(all))
		for id := range all {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return
	}

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := benchCfg{
		sizes:    sizes,
		runs:     *runs,
		episodes: *episodes,
		duration: units.Duration(*durMs) * units.Millisecond,
	}

	if *exp == "all" {
		for _, id := range order {
			fmt.Printf("\n### %s\n", id)
			all[id](*seed, cfg)
		}
		return
	}
	run, ok := all[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	run(*seed, cfg)
}
