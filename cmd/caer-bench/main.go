// Command caer-bench regenerates the data figures of the CAER paper's
// evaluation (Figures 1, 2, 3, 6, 7, 8, 9, 10) on the simulated machine,
// printing each as an ASCII chart plus a data table, and optionally writing
// CSV files for external plotting.
//
// Usage:
//
//	caer-bench [-fig all|1|2|3|6|7|8|9|10] [-csv DIR] [-seed N]
//	           [-benchmarks mcf,namd,...] [-quick]
//	           [-ablation partition,response,tuning,adversary,multiapp|all]
//	           [-suite chaos,sampling,sched,fleet,slo,partition|all] [-workers N]
//	           [-telemetry addr] [-telemetry-out FILE]
//
// -quick shrinks every benchmark's instruction count 8x for a fast smoke
// run; the published numbers in EXPERIMENTS.md use the full lengths.
//
// -suite runs the named regime suites (experiments.Regimes; EXPERIMENTS.md
// maps each to the claim it tests), skipping the figures unless -fig is set
// explicitly. Each suite prints its summary, then checks its gate: a failed
// gate exits non-zero, a passing one prints "<name> gate holds: <claim>"
// and writes the machine-readable BENCH_<name>.json (plus any extra
// artifacts the suite produces, such as the slo suite's caer-doctor bundle
// SLO_*.json) into -csv DIR when given, else the working directory.
// -workers sizes the domain-stepper pool of the multi-domain suites; their
// artifacts are byte-identical for every worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"caer/internal/caer"
	"caer/internal/experiments"
	"caer/internal/report"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "figures to regenerate (comma-separated or 'all'): "+strings.Join(figureNames, ", "))
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files and suite artifacts into")
	seed := flag.Int64("seed", 1, "seed for all runs")
	benches := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 21)")
	quick := flag.Bool("quick", false, "shrink benchmark lengths 8x for a fast smoke run")
	ablation := flag.String("ablation", "", "additionally run ablations (comma-separated or 'all'): "+strings.Join(ablationNames, ", "))
	suites := flag.String("suite", "", "run regime suites and write BENCH_<name>.json (comma-separated or 'all'; skips figures unless -fig is set explicitly): "+strings.Join(regimeNames(), ", "))
	workers := flag.Int("workers", 4, "domain-stepper worker pool size for the -suite runs")
	telemetryAddr := flag.String("telemetry", "", "serve live telemetry (/metrics, /trace, /debug/pprof) on this address, e.g. :6060")
	telemetryOut := flag.String("telemetry-out", "", "write a Prometheus-text telemetry snapshot to this file after the run")
	flag.Parse()

	wantFig, err := parseNames("fig", *fig, figureNames)
	if err != nil {
		fatalf("%v", err)
	}
	wantAbl, err := parseNames("ablation", *ablation, ablationNames)
	if err != nil {
		fatalf("%v", err)
	}
	wantSuite, err := parseNames("suite", *suites, regimeNames())
	if err != nil {
		fatalf("%v", err)
	}

	if *telemetryAddr != "" {
		ln, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			fatalf("telemetry: %v", err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "[telemetry: http://%s/metrics]\n", ln.Addr())
	}

	figSetExplicitly := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fig" {
			figSetExplicitly = true
		}
	})

	suite := experiments.NewSuite()
	suite.Seed = *seed
	suite.Benchmarks = selectBenchmarks(*benches, *quick)

	outDir := "."
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatalf("create csv dir: %v", err)
		}
		outDir = *csvDir
	}

	if len(wantSuite) > 0 && !figSetExplicitly {
		wantFig = nil
	}
	out := os.Stdout
	start := time.Now()

	type figure interface {
		Render(io.Writer) error
	}
	type tabled interface {
		Table() *report.Table
	}
	emit := func(id string, f figure) {
		fmt.Fprintf(out, "\n")
		if err := f.Render(out); err != nil {
			fatalf("render figure %s: %v", id, err)
		}
		if t, ok := f.(tabled); ok && *csvDir != "" {
			path := filepath.Join(*csvDir, "figure"+id+".csv")
			if err := writeFile(path, t.Table().WriteCSV); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(out, "[wrote %s]\n", path)
		}
	}

	if wantFig["1"] {
		emit("1", suite.Figure1())
	}
	if wantFig["2"] {
		emit("2", suite.Figure2())
	}
	if wantFig["3"] {
		emit("3", suite.Figure3(0))
	}
	if wantFig["6"] {
		emit("6", suite.Figure6())
	}
	if wantFig["7"] {
		emit("7", suite.Figure7())
	}
	if wantFig["8"] {
		emit("8", suite.Figure8())
	}
	if wantFig["9"] {
		emit("9", suite.FigureAccuracy(true, 6))
	}
	if wantFig["10"] {
		emit("10", suite.FigureAccuracy(false, 6))
	}

	if len(wantAbl) > 0 {
		mcf, ok := spec.ByName("mcf")
		if !ok {
			fatalf("mcf profile missing")
		}
		if *quick {
			mcf.Exec.Instructions /= 8
		}
		if wantAbl["partition"] {
			emit("-ablation-partition", suite.PartitionSweep(mcf, []int{4, 6, 8, 10, 12, 14}))
		}
		if wantAbl["response"] {
			emit("-ablation-response", suite.ResponseComparison(mcf))
		}
		if wantAbl["tuning"] {
			emit("-ablation-tuning", suite.TuningSweep(mcf,
				[]float64{0.02, 0.05, 0.5, 2, 10, 25, 100},
				[]float64{50, 150, 400, 800, 1600, 3200}))
		}
		if wantAbl["adversary"] {
			latNames := []string{"mcf", "xalancbmk", "namd"}
			var lats []spec.Profile
			for _, n := range latNames {
				p, _ := spec.ByName(n)
				if *quick {
					p.Exec.Instructions /= 8
				}
				lats = append(lats, p)
			}
			advNames := []string{"lbm", "libquantum", "milc"}
			var advs []spec.Profile
			for _, n := range advNames {
				p, _ := spec.ByName(n)
				advs = append(advs, p)
			}
			emit("-ablation-adversary", suite.AdversarySweep(lats, advs, caer.HeuristicRule))
		}
		if wantAbl["multiapp"] {
			soplex, _ := spec.ByName("soplex")
			if *quick {
				soplex.Exec.Instructions /= 8
			}
			emit("-ablation-multiapp", suite.MultiApp(
				[2]spec.Profile{mcf, soplex},
				[2]spec.Profile{spec.LBM(), spec.LBM()},
				caer.HeuristicRule))
		}
	}
	var selected []experiments.Regime
	for _, r := range experiments.Regimes() {
		if wantSuite[r.Name] {
			selected = append(selected, r)
		}
	}
	if err := runSuites(out, selected, *seed, *quick, *workers, outDir); err != nil {
		fatalf("%v", err)
	}
	if *telemetryOut != "" {
		if err := writeFile(*telemetryOut, telemetry.WriteSnapshot); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(out, "[wrote %s]\n", *telemetryOut)
	}
	fmt.Fprintf(out, "\n[%s elapsed]\n", time.Since(start).Round(time.Millisecond))
}

// Names -fig and -ablation accept (besides "all").
var (
	figureNames   = []string{"1", "2", "3", "6", "7", "8", "9", "10"}
	ablationNames = []string{"partition", "response", "tuning", "adversary", "multiapp"}
)

func regimeNames() []string {
	var names []string
	for _, r := range experiments.Regimes() {
		names = append(names, r.Name)
	}
	return names
}

// parseNames parses a comma-separated name-list flag value into the set of
// selected names: "all" selects every valid name, an empty list selects
// none, and an unknown name is an error listing the valid ones.
func parseNames(flagName, list string, valid []string) (map[string]bool, error) {
	want := map[string]bool{}
	if list == "" {
		return want, nil
	}
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		switch {
		case n == "all":
			for _, v := range valid {
				want[v] = true
			}
		case slices.Contains(valid, n):
			want[n] = true
		default:
			return nil, fmt.Errorf("-%s: unknown name %q (valid: %s, all)", flagName, n, strings.Join(valid, ", "))
		}
	}
	return want, nil
}

// bundler is implemented by results that leave extra artifacts next to
// their BENCH_<name>.json (the slo suite's caer-doctor bundle).
type bundler interface {
	WriteDoctorBundle(dir string) error
}

// runSuites runs each regime in turn: Run, Render, then Check. The first
// failed gate is returned as an error; a passing regime prints its claim
// and writes BENCH_<name>.json (plus any bundle) into dir.
func runSuites(out io.Writer, regimes []experiments.Regime, seed int64, quick bool, workers int, dir string) error {
	for _, r := range regimes {
		fmt.Fprintf(out, "\n")
		res := r.Run(seed, quick, workers)
		if err := res.Render(out); err != nil {
			return fmt.Errorf("render %s: %w", r.Name, err)
		}
		if err := res.Check(); err != nil {
			return fmt.Errorf("%s gate violation: %w", r.Name, err)
		}
		fmt.Fprintf(out, "%s gate holds: %s\n", r.Name, r.Claim)
		path := filepath.Join(dir, "BENCH_"+r.Name+".json")
		if err := writeFile(path, res.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "[wrote %s]\n", path)
		if b, ok := res.(bundler); ok {
			if err := b.WriteDoctorBundle(dir); err != nil {
				return fmt.Errorf("write %s bundle: %w", r.Name, err)
			}
			fmt.Fprintf(out, "[wrote %s doctor bundle into %s]\n", r.Name, dir)
		}
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := write(fh); err != nil {
		fh.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := fh.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func selectBenchmarks(csv string, quick bool) []spec.Profile {
	var out []spec.Profile
	if csv == "" {
		out = spec.All()
	} else {
		for _, n := range strings.Split(csv, ",") {
			p, ok := spec.ByName(strings.TrimSpace(n))
			if !ok {
				fatalf("unknown benchmark %q", n)
			}
			out = append(out, p)
		}
	}
	if quick {
		for i := range out {
			out[i].Exec.Instructions /= 8
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "caer-bench: "+format+"\n", args...)
	os.Exit(1)
}
