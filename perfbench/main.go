// Command perfbench is the repository's benchmark. It drives the simulator
// through its public entry points on one workload and prints every metric
// by name and unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload pair_llc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// a separate traced round and reports the per-layer breakdown. README.md
// in this directory documents every metric and workload.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times set-up is repeated for the setup_s median.
const setupReps = 15

// goldenJSON holds the sim_digest values of the default seed, committed
// so a change that moves the modelled outputs shows as a golden mismatch.
//
//go:embed golden.json
var goldenJSON []byte

const defaultSeed = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: pair_llc, pair_resident or fleet_partition")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced round and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(o, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// outcome is one round's verdict: its digest of simulated outputs, the
// operations it attempted and failed, and closures reading its metrics.
type outcome struct {
	digest    string
	ops       int
	errs      []string
	simulated func(*metrics) error // simulated-time end-to-end metrics
	counts    func(*metrics)       // per-layer work counts
}

// failed counts the round's failed operations: one per error, at most all.
func (o outcome) failed() int { return min(len(o.errs), o.ops) }

// benchWorkload is one benchmark input set. A round is the seed's whole
// simulated work; every round of one seed must give the same digest.
type benchWorkload interface {
	name() string
	// setup builds one round's simulated objects, timed for setup_s.
	setup()
	// round runs the work once, timing each period into tm. The
	// reference round runs the check configuration (fleet: one worker).
	round(tm *stepTimer, reference bool) outcome
	// tracedRound runs one round with tracing on and adds the per-layer
	// host-time metrics to out.
	tracedRound(tm *stepTimer, out *metrics) (outcome, error)
}

func newWorkload(name string, seed int64) (benchWorkload, error) {
	switch name {
	case "pair_llc":
		return pairBench{newPairLLC(seed)}, nil
	case "pair_resident":
		return pairBench{newPairResident(seed)}, nil
	case "fleet_partition":
		return fleetBench{newFleetPartition(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want pair_llc, pair_resident or fleet_partition)", name)
}

// stepTimer collects host time per simulated period (one Runtime.Step or
// Cluster.Tick) and the peak live heap. endRound closes a round's summary.
type stepTimer struct {
	ms           []float64
	total        time.Duration
	instructions uint64
	heapPeak     uint64
	heap         []rtmetrics.Sample // nil: heap not sampled
	rounds       []roundStat
	mark         stepMark
}

// roundStat is one timed round's host-time summary.
type roundStat struct {
	p50, p99, minstrPerS float64
	periods              int
}

// stepMark is where the current round started in the timer's totals.
type stepMark struct {
	periods      int
	total        time.Duration
	instructions uint64
}

func newStepTimer() *stepTimer { return &stepTimer{} }

// sampleHeaps turns heap sampling on. Its forced collections would show in
// the go layer's GC counts, so traced runs leave it off.
func (t *stepTimer) sampleHeaps() {
	t.heap = []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
}

func (t *stepTimer) add(d time.Duration) {
	t.ms = append(t.ms, float64(d.Nanoseconds())/1e6)
	t.total += d
}

// sampleHeap records the live heap at a point where a workload's state is
// largest: the end of a pair scenario or of a fleet round, before its
// objects are dropped. A forced GC makes the reading independent of when
// the collector last ran; it happens outside every timed period.
func (t *stepTimer) sampleHeap() {
	if t.heap == nil {
		return
	}
	runtime.GC()
	rtmetrics.Read(t.heap)
	if v := t.heap[0].Value.Uint64(); v > t.heapPeak {
		t.heapPeak = v
	}
}

// endRound summarises the periods timed since the previous round ended.
// Host noise on a shared machine comes in bursts of seconds, so the
// reported figures are medians over rounds: one slow round moves them
// less than it moves a percentile over all periods pooled.
func (t *stepTimer) endRound() error {
	ms := append([]float64(nil), t.ms[t.mark.periods:]...)
	p50, err := percentile(ms, 0.5)
	if err != nil {
		return fmt.Errorf("round p50: %w", err)
	}
	p99, err := percentile(ms, 0.99)
	if err != nil {
		return fmt.Errorf("round p99: %w", err)
	}
	secs := (t.total - t.mark.total).Seconds()
	t.rounds = append(t.rounds, roundStat{
		p50:        p50,
		p99:        p99,
		minstrPerS: float64(t.instructions-t.mark.instructions) / secs / 1e6,
		periods:    len(ms),
	})
	t.mark = stepMark{len(t.ms), t.total, t.instructions}
	return nil
}

// roundMedian is the median over timed rounds of one summary field.
func (t *stepTimer) roundMedian(f func(roundStat) float64) float64 {
	vs := make([]float64, len(t.rounds))
	for i, r := range t.rounds {
		vs[i] = f(r)
	}
	return median(vs)
}

// runtimeCounters snapshots the Go runtime's GC and allocation counters.
type runtimeCounters struct{ gcCycles, gcCPU, allocBytes, allocs float64 }

func readRuntime() runtimeCounters {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == rtmetrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return float64(s[i].Value.Uint64())
	}
	return runtimeCounters{v(0), v(1), v(2), v(3)}
}

// bench runs the workload and assembles the result.
func bench(o options, w benchWorkload, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v host: nproc=%d GOMAXPROCS=%d %s\n",
		w.name(), o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	m := newMetrics()
	res := &result{}
	tally := func(oc outcome, ref string) {
		res.Attempted += oc.ops
		f := oc.failed()
		if ref != "" && oc.digest != ref {
			oc.errs = append(oc.errs, fmt.Sprintf("sim_digest %s differs from the reference round's %s", oc.digest, ref))
			f = oc.ops
		}
		res.Failed += f
		for _, e := range oc.errs {
			fmt.Fprintln(out, "FAIL", e)
		}
	}

	var setups []float64
	if !o.trace {
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			t0 := time.Now()
			w.setup()
			setups = append(setups, time.Since(t0).Seconds())
		}
	}

	// The reference round: the digest every later round must repeat, and
	// the source of the simulated-time metrics and work counts, which are
	// deterministic. Its objects are dropped before timing starts.
	pl := newMetrics()
	ref := w.round(newStepTimer(), true)
	tally(ref, "")
	if err := ref.simulated(m); err != nil {
		return nil, err
	}
	if o.trace {
		ref.counts(pl)
	}
	refDigest := ref.digest
	ref = outcome{}

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	runtime.GC()
	before := readRuntime()
	tm := newStepTimer()
	if !o.trace {
		tm.sampleHeaps()
	}
	t0 := time.Now()
	var roundErr error
	measure(budget, func() {
		tally(w.round(tm, false), refDigest)
		if err := tm.endRound(); err != nil && roundErr == nil {
			roundErr = err
		}
	})
	wall := time.Since(t0)
	after := readRuntime()
	if roundErr != nil {
		return nil, roundErr
	}
	p50 := tm.roundMedian(func(r roundStat) float64 { return r.p50 })

	if o.trace {
		ttm := newStepTimer()
		toc, err := w.tracedRound(ttm, pl)
		if err != nil {
			return nil, err
		}
		tally(toc, refDigest)
		periods := float64(len(tm.ms))
		pl.set("go.gc_cycles", "count", after.gcCycles-before.gcCycles)
		pl.set("go.gc_cpu_share", "ratio", (after.gcCPU-before.gcCPU)/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
		pl.note("go.gc_cpu_share", "GC CPU time over GOMAXPROCS times wall time")
		pl.set("go.alloc_bytes_per_period", "B", (after.allocBytes-before.allocBytes)/periods)
		pl.set("go.allocs_per_period", "count", (after.allocs-before.allocs)/periods)
		if err := ttm.endRound(); err != nil {
			return nil, fmt.Errorf("traced round: %w", err)
		}
		tp50 := ttm.rounds[0].p50
		pl.set("trace.overhead", "ratio", tp50/p50)
		pl.note("trace.overhead", fmt.Sprintf("traced p50 %.4f ms over untraced p50 %.4f ms", tp50, p50))
		m = pl
	} else {
		n := tm.rounds[0].periods
		across := fmt.Sprintf("median of %d rounds of %d periods", len(tm.rounds), n)
		m.set("sim_minstr_per_s", "Minstr/s", tm.roundMedian(func(r roundStat) float64 { return r.minstrPerS }))
		m.note("sim_minstr_per_s", across)
		m.set("period_ms_p50", "ms", p50)
		m.note("period_ms_p50", across)
		m.set("period_ms_p99", "ms", tm.roundMedian(func(r roundStat) float64 { return r.p99 }))
		m.note("period_ms_p99", fmt.Sprintf("%s, %d beyond p99 in each", across, beyond(n, 0.99)))
		m.set("setup_s", "s", median(setups))
		m.note("setup_s", fmt.Sprintf("median of %d", len(setups)))
		m.set("heap_peak_mb", "MiB", float64(tm.heapPeak)/(1<<20))
	}

	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{}
	for _, name := range m.names {
		v := m.vals[name]
		res.Metrics[name] = v
		line := fmt.Sprintf("%-32s %14.6g %s", name, v.Value, v.Unit)
		if note := m.notes[name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(out, line)
	}
	if !o.trace {
		fmt.Fprintf(out, "%-32s %14.6g ratio  (%d of %d operations)\n", "failed_share",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	fmt.Fprintf(out, "sim_digest %s %s\n", refDigest, golden(w.name(), o.seed, refDigest))
	return res, nil
}

// measure calls round until budget seconds have passed, starting a round
// only while the last one would still fit, and always at least once.
func measure(budget float64, round func()) {
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	n := 0
	var last time.Duration
	for n == 0 || time.Until(deadline) >= last {
		t0 := time.Now()
		round()
		last = time.Since(t0)
		n++
	}
}

// golden compares a default-seed digest with the committed one. A
// mismatch is reported, not failed: a change to the modelled design moves
// it legitimately, while a change meant only to speed the simulator up
// must leave it equal.
func golden(workload string, seed int64, digest string) string {
	if seed != defaultSeed {
		return "(no golden digest for this seed)"
	}
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "(golden.json unreadable: " + err.Error() + ")"
	}
	switch want, ok := g[workload]; {
	case !ok:
		return "(no golden digest for this workload)"
	case want == digest:
		return "golden: match"
	default:
		return "golden: DIFFERS from committed " + want + " (the modelled outputs changed)"
	}
}

// profiler collects CPU profiles over chosen stretches of a run.
type profiler struct {
	bufs []*bytes.Buffer
}

func (p *profiler) start() error {
	b := &bytes.Buffer{}
	if err := pprof.StartCPUProfile(b); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.bufs = append(p.bufs, b)
	return nil
}

func (p *profiler) stop() { pprof.StopCPUProfile() }

// fold merges every collected profile into per-layer sample shares.
func (p *profiler) fold() (map[string]float64, int64, error) {
	merged := &cpuProfile{}
	for _, b := range p.bufs {
		cp, err := parseProfile(b)
		if err != nil {
			return nil, 0, err
		}
		merged.stacks = append(merged.stacks, cp.stacks...)
		merged.counts = append(merged.counts, cp.counts...)
	}
	if merged.samples() == 0 {
		return nil, 0, errors.New("cpu profile: no samples")
	}
	return merged.fold(), merged.samples(), nil
}
