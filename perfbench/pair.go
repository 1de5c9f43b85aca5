package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/spec"
)

// pairMode is how one pair scenario runs its sensitive app: alone on the
// domain, or beside the relaunching batch under one of the paper's two
// heuristic pairings.
type pairMode int

const (
	modeAlone   pairMode = iota
	modeRule             // rule-based detection, soft-lock response
	modeShutter          // burst-shutter detection, red-light/green-light response
)

var pairModes = []pairMode{modeAlone, modeRule, modeShutter}

func (m pairMode) String() string {
	return [...]string{"alone", "rule", "shutter"}[m]
}

func (m pairMode) heuristic() caer.HeuristicKind {
	if m == modeShutter {
		return caer.HeuristicShutter
	}
	return caer.HeuristicRule
}

// Footprint layout of the paper's prototype: the sensitive app at 0, the
// batch app far above it, so the two share no data.
const batchBase = 1 << 28

// Run-length caps. A scenario or fleet round that has not finished by its
// cap counts as failed.
const (
	pairMaxPeriods = 20_000
	// svcSlices splits a pair scenario's sensitive run into this many
	// equal-instruction requests; the periods each takes is one
	// svc_req_p90_periods sample.
	svcSlices = 16
)

// pairWorkload is the paper's prototype: one 2-core LLC domain, each
// sensitive app run to completion alone and beside a relaunching batch
// app under both heuristic pairings.
type pairWorkload struct {
	name  string
	apps  []spec.Profile
	batch spec.Profile
	seed  int64
	cfg   caer.Config
	// logSizes is each scenario's trace log size, learnt from an
	// untraced round: references (one per memory instruction, at most
	// one per instruction) plus relaunch markers, and periods.
	logSizes map[scenario]logSize
}

type logSize struct{ refs, periods int }

func mustProfile(name string) spec.Profile {
	p, ok := spec.ByName(name)
	if !ok {
		panic("perfbench: unknown profile " + name)
	}
	return p
}

// newPairLLC is the pair_llc workload: the six LLC-sensitive apps beside
// lbm. lbm is shortened so it completes and relaunches several times per
// scenario, which exercises the flush path and gives job_sojourn samples.
func newPairLLC(seed int64) *pairWorkload {
	lbm := mustProfile("lbm")
	lbm.Exec.Instructions = 20_000
	return &pairWorkload{
		name:  "pair_llc",
		apps:  profiles("mcf", "omnetpp", "soplex", "libquantum", "xalancbmk", "milc"),
		batch: lbm,
		seed:  seed,
		cfg:   caer.DefaultConfig(),
	}
}

// newPairResident is the pair_resident workload: six private-cache-resident
// apps beside a relaunching povray, itself cache-resident. The apps run
// half their usual length so a round stays a few seconds long.
func newPairResident(seed int64) *pairWorkload {
	apps := profiles("namd", "povray", "hmmer", "gromacs", "sjeng", "calculix")
	for i := range apps {
		apps[i].Exec.Instructions /= 2
	}
	povray := mustProfile("povray")
	povray.Exec.Instructions = 500_000
	return &pairWorkload{
		name:  "pair_resident",
		apps:  apps,
		batch: povray,
		seed:  seed,
		cfg:   caer.DefaultConfig(),
	}
}

func profiles(names ...string) []spec.Profile {
	out := make([]spec.Profile, len(names))
	for i, n := range names {
		out[i] = mustProfile(n)
	}
	return out
}

// scenario is one (app, mode) cell of a pair round.
type scenario struct {
	app  int
	mode pairMode
}

func (w *pairWorkload) scenarios() []scenario {
	var out []scenario
	for a := range w.apps {
		for _, m := range pairModes {
			out = append(out, scenario{a, m})
		}
	}
	return out
}

// seeds derives the sensitive and batch process seeds of app a. The alone
// and co-located runs of one app share them, so slowdown compares one
// reference stream against itself.
func (w *pairWorkload) seeds(a int) (lat, batch int64) {
	lat = w.seed*1000 + int64(a)*2
	return lat, lat + 1
}

// pairRun is one scenario's simulated objects.
type pairRun struct {
	sc    scenario
	m     *machine.Machine
	lat   *machine.Process
	batch *machine.Process // nil when alone
	rt    *caer.Runtime    // nil when alone
	rec   *recorder        // nil when untraced
}

// build constructs a scenario: machine, processes and, when co-located,
// the CAER runtime. A non-nil recorder wraps the generators and counter
// source so the run can be replayed layer by layer.
func (w *pairWorkload) build(sc scenario, rec *recorder) *pairRun {
	app, batch := w.apps[sc.app], w.batch
	latSeed, batchSeed := w.seeds(sc.app)
	if rec != nil {
		app = rec.wrap(app, 0)
		batch = rec.wrap(batch, 1)
	}
	m := machine.New(machine.Config{Cores: 2})
	r := &pairRun{sc: sc, m: m, lat: app.NewProcess(0, latSeed), rec: rec}
	if sc.mode == modeAlone {
		m.Bind(0, r.lat)
		return r
	}
	var opts []caer.Option
	if rec != nil {
		opts = append(opts, caer.WithSource(rec.source(m)))
	}
	r.rt = caer.NewRuntime(m, sc.mode.heuristic(), w.cfg, opts...)
	r.rt.AddLatency(spec.ShortName(app.Name), 0, r.lat)
	r.batch = batch.NewProcess(batchBase, batchSeed)
	r.rt.AddBatch(spec.ShortName(batch.Name), 1, r.batch)
	return r
}

func (r *pairRun) step() {
	if r.rt != nil {
		r.rt.Step()
	} else {
		r.m.RunPeriod()
	}
	if r.rec != nil {
		r.rec.endPeriod()
	}
}

// scenarioResult is one scenario's simulated outcome.
type scenarioResult struct {
	sc         scenario
	periods    uint64
	instr      [2]uint64
	llcMiss    [2]uint64
	llcAcc     [2]uint64
	engine     caer.EngineStats
	sampling   caer.SamplingStats
	relaunches int
	duty       float64   // batch core R/(R+I)
	requests   []float64 // periods per svcSlices-th of the sensitive run
	sojourns   []float64 // periods per completed batch run
	l1, l2     [2]mem.CacheStats
	l3         mem.CacheStats
	memAcc     uint64
	memQueued  uint64
	errs       []string
}

// run executes the scenario to completion, timing every period into tm.
func (w *pairWorkload) run(r *pairRun, tm *stepTimer) scenarioResult {
	res := scenarioResult{sc: r.sc}
	want := w.apps[r.sc.app].Exec.Instructions
	slice, lastSlice := uint64(1), uint64(0)
	lastRelaunches, lastLaunch := 0, uint64(0)
	for !r.lat.Done() && r.m.Periods() < pairMaxPeriods {
		t0 := time.Now()
		r.step()
		tm.add(time.Since(t0))
		if r.rt == nil {
			continue
		}
		p := r.m.Periods()
		for slice <= svcSlices && r.lat.Retired() >= want*slice/svcSlices {
			res.requests = append(res.requests, float64(p-lastSlice))
			lastSlice = p
			slice++
		}
		if n := r.rt.Relaunches(); n > lastRelaunches {
			res.sojourns = append(res.sojourns, float64(p-lastLaunch))
			lastRelaunches, lastLaunch = n, p
		}
	}
	tm.instructions += r.m.ReadCounter(0, pmu.EventInstrRetired) + r.m.ReadCounter(1, pmu.EventInstrRetired)
	w.collect(r, &res, want)
	tm.sampleHeap()
	return res
}

// collect reads the scenario's outcome through public getters and checks
// the invariants every correct run must satisfy.
func (w *pairWorkload) collect(r *pairRun, res *scenarioResult, want uint64) {
	m := r.m
	res.periods = m.Periods()
	fail := func(format string, args ...any) {
		res.errs = append(res.errs, fmt.Sprintf("%s/%s: ", spec.ShortName(w.apps[r.sc.app].Name), r.sc.mode)+fmt.Sprintf(format, args...))
	}
	if !r.lat.Done() {
		fail("not done after %d periods", pairMaxPeriods)
	}
	if r.lat.Retired() != want {
		fail("retired %d instructions, want %d", r.lat.Retired(), want)
	}
	h := m.Hierarchy()
	for c := 0; c < 2; c++ {
		res.instr[c] = m.ReadCounter(c, pmu.EventInstrRetired)
		res.llcMiss[c] = m.ReadCounter(c, pmu.EventLLCMisses)
		res.llcAcc[c] = m.ReadCounter(c, pmu.EventLLCAccesses)
		res.l1[c] = h.L1(c).Stats()
		res.l2[c] = h.L2(c).Stats()
		if res.llcMiss[c] > res.llcAcc[c] {
			fail("core %d: %d LLC misses exceed %d accesses", c, res.llcMiss[c], res.llcAcc[c])
		}
	}
	if res.instr[0] != want {
		fail("core 0 counted %d instructions, want %d", res.instr[0], want)
	}
	res.l3 = h.L3().Stats()
	res.memAcc = h.Memory().Accesses()
	res.memQueued = h.Memory().QueuedCycles()
	if r.rt == nil {
		return
	}
	res.engine = r.rt.Engines()[0].Stats()
	res.sampling = r.rt.SamplingStats()
	res.relaunches = r.rt.Relaunches()
	res.duty = m.Core(1).Utilization()
	if e := res.engine; e.Periods != res.periods || e.PausedPeriods+e.RunPeriods != e.Periods {
		fail("engine ticked %d periods (%d paused + %d run) over %d", e.Periods, e.PausedPeriods, e.RunPeriods, res.periods)
	}
	if res.sampling.ProbePeriods != res.periods {
		fail("%d probe periods over %d polled periods", res.sampling.ProbePeriods, res.periods)
	}
	c := m.Core(1)
	if got := c.BusyCycles() + c.IdleCycles(); got != res.periods*m.PeriodCycles() {
		fail("batch core accounted %d cycles over %d periods", got, res.periods)
	}
	if len(res.requests) != svcSlices {
		fail("%d requests, want %d", len(res.requests), svcSlices)
	}
	batchWant := uint64(res.relaunches)*w.batch.Exec.Instructions + r.batch.Retired()
	if res.instr[1] != batchWant {
		fail("batch core counted %d instructions, want %d", res.instr[1], batchWant)
	}
}

// pairRound is one full round: every scenario once.
type pairRound struct {
	results []scenarioResult
	digest  string
	ops     int
	errs    []string
}

func (w *pairWorkload) setup() {
	for _, sc := range w.scenarios() {
		w.build(sc, nil)
	}
}

func (w *pairWorkload) round(tm *stepTimer) *pairRound {
	rd := &pairRound{}
	if w.logSizes == nil {
		w.logSizes = map[scenario]logSize{}
	}
	for _, sc := range w.scenarios() {
		res := w.run(w.build(sc, nil), tm)
		w.logSizes[sc] = logSize{
			refs:    int(res.instr[0]+res.instr[1]) + res.relaunches,
			periods: int(res.periods),
		}
		rd.add(res)
	}
	rd.finish()
	return rd
}

func (rd *pairRound) add(res scenarioResult) {
	rd.results = append(rd.results, res)
	rd.ops++
	rd.errs = append(rd.errs, res.errs...)
}

// finish digests the round's simulated outputs. Host timings are excluded,
// so every round of one seed must give the same digest.
func (rd *pairRound) finish() {
	h := sha256.New()
	for _, r := range rd.results {
		fmt.Fprintf(h, "%d/%d periods=%d instr=%v miss=%v acc=%v eng=%+v probes=%d/%d rel=%d duty=%.17g req=%v soj=%v l1=%+v l2=%+v l3=%+v mem=%d/%d\n",
			r.sc.app, r.sc.mode, r.periods, r.instr, r.llcMiss, r.llcAcc, r.engine,
			r.sampling.ProbePeriods, r.sampling.SkippedPeriods, r.relaunches, r.duty,
			r.requests, r.sojourns, r.l1, r.l2, r.l3, r.memAcc, r.memQueued)
	}
	rd.digest = fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// simulated fills the round's simulated-time metrics.
func (w *pairWorkload) simulated(rd *pairRound, out *metrics) error {
	alone := map[int]uint64{}
	for _, r := range rd.results {
		if r.sc.mode == modeAlone {
			alone[r.sc.app] = r.periods
		}
	}
	var ratios, duty, requests, sojourns []float64
	var colocated uint64
	completions := 0
	for _, r := range rd.results {
		if r.sc.mode == modeAlone {
			continue
		}
		ratios = append(ratios, float64(r.periods)/float64(alone[r.sc.app]))
		duty = append(duty, r.duty)
		requests = append(requests, r.requests...)
		sojourns = append(sojourns, r.sojourns...)
		colocated += r.periods
		completions += r.relaunches
	}
	svc, err := percentile(requests, 0.9)
	if err != nil {
		return fmt.Errorf("svc_req_p90_periods: %w", err)
	}
	soj, err := percentile(sojourns, 0.9)
	if err != nil {
		return fmt.Errorf("job_sojourn_p90_periods: %w", err)
	}
	var dutySum float64
	for _, d := range duty {
		dutySum += d
	}
	out.set("qos_slowdown", "ratio", geomean(ratios))
	out.set("batch_duty", "ratio", dutySum/float64(len(duty)))
	out.set("svc_req_p90_periods", "periods", svc)
	out.note("svc_req_p90_periods", fmt.Sprintf("n=%d", len(requests)))
	out.set("job_sojourn_p90_periods", "periods", soj)
	out.note("job_sojourn_p90_periods", fmt.Sprintf("n=%d", len(sojourns)))
	out.set("jobs_per_kperiod", "1/kperiod", float64(completions)/float64(colocated)*1000)
	return nil
}
