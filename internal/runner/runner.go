// Package runner executes the paper's co-location scenarios end to end and
// extracts the evaluation metrics: a latency-sensitive benchmark runs to
// completion on core 0 (its wall-clock period count is the figure of
// merit), optionally next to a batch application on core 1 that is either
// unmanaged (native co-location), managed by a CAER heuristic, or absent
// (the baseline the paper's "disallow co-location" policy corresponds to).
//
// The batch application is relaunched whenever it finishes before the
// latency-sensitive application, exactly as the paper's scripts do with
// lbm (§6.1).
package runner

import (
	"fmt"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/sched"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

// Mode distinguishes the three ways a scenario can run.
type Mode int

const (
	// ModeAlone runs only the latency-sensitive application (the
	// disallow-co-location policy).
	ModeAlone Mode = iota
	// ModeNativeColo co-locates both applications with no runtime.
	ModeNativeColo
	// ModeCAER co-locates both applications under a CAER heuristic.
	ModeCAER
	// ModeScheduled runs the latency app(s) as pinned services on a
	// multi-LLC-domain machine while the batch work flows through
	// internal/sched's admission queue and placement engine; each placed
	// job still runs under a per-domain CAER engine.
	ModeScheduled
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAlone:
		return "alone"
	case ModeNativeColo:
		return "native-colo"
	case ModeCAER:
		return "caer"
	case ModeScheduled:
		return "scheduled"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Scenario describes one co-location experiment.
type Scenario struct {
	// Latency is the latency-sensitive benchmark (runs to completion).
	Latency spec.Profile
	// Batch is the throughput adversary; the zero value (detected by an
	// empty Name) means lbm, the paper's adversary. Pinned by
	// TestScenarioZeroValueBatchIsLBM.
	Batch spec.Profile
	// ExtraBatches adds further batch adversaries on cores 2, 3, ... beyond
	// the primary batch on core 1 (ignored in ModeAlone). Under ModeCAER
	// each extra batch gets its own engine; the Result's decision counters
	// aggregate over all of them.
	ExtraBatches []spec.Profile
	// Mode selects alone / native / CAER execution.
	Mode Mode
	// Heuristic selects the CAER pairing when Mode == ModeCAER.
	Heuristic caer.HeuristicKind
	// Config is the CAER configuration; zero value means caer.DefaultConfig.
	Config caer.Config
	// Seed drives all stochastic choices. The latency app uses Seed, the
	// batch app Seed+1.
	Seed int64
	// Cores sizes the machine; zero means 2 (the paper's prototype shape:
	// one latency-sensitive + one batch).
	Cores int
	// MaxPeriods bounds the run as a safety valve; zero means 10,000,000.
	MaxPeriods int
	// Workers sizes the machine's domain-stepper worker pool: with more
	// than one LLC domain and Workers > 1, independent domains step on
	// parallel host cores with bit-identical per-seed results (the machine's
	// determinism contract, pinned by the experiments determinism test).
	// 0 or 1 = serial stepping.
	Workers int
	// Actuator optionally replaces the pause actuator (DVFS extension).
	Actuator caer.Actuator
	// PartitionWays statically way-partitions the shared L3: the latency
	// application gets PartitionWays ways, the batch application the rest.
	// This is the hardware-QoS ablation (cf. the paper's related work on
	// cache partitioning); 0 disables partitioning. Only meaningful for
	// co-located modes.
	PartitionWays int

	// Scheduled-mode knobs (Mode == ModeScheduled; ignored otherwise).

	// Domains splits the machine's cores into LLC domains; zero means 2.
	// Cores defaults to 4*Domains in scheduled mode and must divide evenly.
	Domains int
	// ExtraLatencies adds further latency-sensitive services beyond Latency
	// (which runs on core 0 of domain 0): extra i is pinned to the first
	// free core of domain (i+1) mod Domains, so services spread across
	// domains.
	ExtraLatencies []spec.Profile
	// Jobs are the finite batch work items submitted to the admission
	// queue before the run starts, in order. Their Instructions counts are
	// used as-is (they run to completion once and are not relaunched).
	Jobs []spec.Profile
	// Sched configures the placement/admission subsystem: policy,
	// thresholds, aging bound, migration rate. Its Heuristic and Caer
	// fields are overridden by the scenario's Heuristic and Config so the
	// engine setup matches the other modes.
	Sched sched.Config
}

func (s Scenario) withDefaults() Scenario {
	if s.Batch.Name == "" {
		s.Batch = spec.LBM()
	}
	if s.Config.WindowSize == 0 {
		s.Config = caer.DefaultConfig()
	}
	if s.Mode == ModeScheduled {
		if s.Domains == 0 {
			s.Domains = 2
		}
		if s.Cores == 0 {
			s.Cores = 4 * s.Domains
		}
	} else if need := 2 + len(s.ExtraBatches); s.Cores < need {
		s.Cores = need
	}
	if s.MaxPeriods == 0 {
		s.MaxPeriods = 10_000_000
	}
	return s
}

// batchBase places the batch application's footprint far from the latency
// application's (they are separate processes and share no data); extra
// batches are spread extraBatchStride apart above it.
const (
	batchBase        = 1 << 28
	extraBatchStride = 1 << 26
)

// Result is one scenario's outcome.
type Result struct {
	Scenario Scenario

	// Periods is the latency-sensitive application's wall-clock run length
	// in sampling periods — the paper's execution-time metric.
	Periods uint64
	// Completed reports whether the latency app finished within MaxPeriods.
	Completed bool

	// LatencyInstructions / LatencyMisses are the latency app's totals.
	LatencyInstructions uint64
	LatencyMisses       uint64
	// BatchInstructions / BatchMisses are the batch apps' totals over the
	// same wall-clock window, summed across every batch core (0 in
	// ModeAlone).
	BatchInstructions uint64
	BatchMisses       uint64

	// BatchDuty is the batch cores' mean R/(R+I) over the run — the paper's
	// "utilization gained" by allowing co-location (0 in ModeAlone, 1 in
	// unmanaged co-location).
	BatchDuty float64
	// ChipUtilization is Equation 1 over the occupied cores.
	ChipUtilization float64

	// Engine decision counters (CAER runs only), aggregated across every
	// engine — with ExtraBatches there is one engine per batch application.
	CPositive, CNegative, PausedPeriods uint64
	// EngineLogs holds each engine's most recent decisions in batch-core
	// order (CAER runs only; each bounded by the engine's log capacity).
	EngineLogs [][]caer.Event
	// DecisionLog is EngineLogs[0] — the primary batch engine's log, kept
	// for the common single-batch case.
	DecisionLog []caer.Event
	// Relaunches counts batch restarts.
	Relaunches int

	// Sampling is the runtime's probe-schedule accounting (CAER runs
	// only): which mode ran and how many probe periods it spent or shed.
	Sampling caer.SamplingStats

	// BatchResults breaks the batch-side outcome down per application: one
	// entry per batch core (native/CAER modes, placement order) or per
	// submitted job (scheduled mode, submission order). Empty in ModeAlone.
	BatchResults []BatchResult

	// Scheduled-mode outcome (Mode == ModeScheduled; zero otherwise).

	// SchedDecisions is the scheduler's admission/migration/completion
	// timeline.
	SchedDecisions []sched.Decision
	// JobsCompleted counts submitted jobs that ran to completion — the
	// admitted batch throughput the regime suite holds equal across
	// policies.
	JobsCompleted int
	// MaxWait is the longest any job waited in the admission queue
	// (periods); bounded by Sched.AgingBound while cores are free.
	MaxWait int
	// Migrations counts cross-domain job moves.
	Migrations int
}

// BatchResult is one batch application's (or scheduled job's) outcome.
type BatchResult struct {
	Name   string
	Core   int // -1 if the job was never placed
	Domain int // LLC domain of Core (-1 if never placed)

	// Instructions and Misses are the application's own totals (per
	// process, not per core, so scheduled-mode migration and core reuse do
	// not mix applications).
	Instructions uint64
	Misses       uint64

	// PausedPeriods / RunPeriods are its engine's actuation totals (zero
	// when it ran unmanaged: native mode, or a scheduled job on a domain
	// with no latency app). CPositive/CNegative are its engine's verdicts.
	PausedPeriods, RunPeriods uint64
	CPositive, CNegative      uint64

	// Relaunches counts restarts (service batches only; scheduled jobs
	// run once).
	Relaunches int

	// Scheduled-mode lifecycle: queue wait, forced-aging flag, admission /
	// completion periods (1-based, 0 = never), migration count, and
	// whether the job finished within the run.
	Waited     int
	Aged       bool
	Admitted   uint64
	DonePeriod uint64
	Completed  bool
	Migrations int
}

// Run executes the scenario to completion (or MaxPeriods) and returns the
// result.
func Run(s Scenario) Result {
	s = s.withDefaults()
	switch s.Mode {
	case ModeAlone:
		telemetry.RunnerRunsAlone.Inc()
		return runAlone(s)
	case ModeNativeColo:
		telemetry.RunnerRunsNative.Inc()
		return runNative(s)
	case ModeCAER:
		telemetry.RunnerRunsCAER.Inc()
		return runCAER(s)
	case ModeScheduled:
		telemetry.RunnerRunsScheduled.Inc()
		return runScheduled(s)
	default:
		panic(fmt.Sprintf("runner: unknown mode %d", int(s.Mode)))
	}
}

func newMachine(s Scenario) *machine.Machine {
	m := machine.New(machine.Config{Cores: s.Cores, Workers: s.Workers})
	if s.PartitionWays > 0 {
		l3 := m.Hierarchy().L3()
		if s.PartitionWays >= l3.Ways() {
			panic(fmt.Sprintf("runner: partition of %d ways leaves none for the batch (L3 has %d)", s.PartitionWays, l3.Ways()))
		}
		l3.SetOwnerMask(0, mem.ContiguousMask(0, s.PartitionWays), mem.ResizeOrphan)
		for core := 1; core < s.Cores; core++ {
			l3.SetOwnerMask(core, mem.ContiguousMask(s.PartitionWays, l3.Ways()), mem.ResizeOrphan)
		}
	}
	return m
}

func runAlone(s Scenario) Result {
	m := newMachine(s)
	lat := s.Latency.NewProcess(0, s.Seed)
	m.Bind(0, lat)
	res := Result{Scenario: s}
	for p := 0; p < s.MaxPeriods && !lat.Done(); p++ {
		m.RunPeriod()
		telemetry.RunnerPeriods.Inc()
	}
	res.Completed = lat.Done()
	res.Periods = m.Periods()
	res.LatencyInstructions = lat.Retired()
	res.LatencyMisses = m.ReadCounter(0, pmu.EventLLCMisses)
	res.ChipUtilization = m.Utilization(2)
	return res
}

// batchSpec is one batch adversary's placement: its profile, core, and
// footprint base address.
type batchSpec struct {
	prof spec.Profile
	core int
	base uint64
}

// batchSpecs returns every batch adversary with its placement: the primary
// on core 1, the extras on cores 2, 3, ...
func (s Scenario) batchSpecs() []batchSpec {
	out := make([]batchSpec, 0, 1+len(s.ExtraBatches))
	out = append(out, batchSpec{s.Batch, 1, batchBase})
	for i, p := range s.ExtraBatches {
		out = append(out, batchSpec{p, 2 + i, batchBase + uint64(i+1)*extraBatchStride})
	}
	return out
}

// fillBatchTotals sums the batch cores' counters into res.
func fillBatchTotals(res *Result, m *machine.Machine, cores []int) {
	var duty float64
	for _, c := range cores {
		res.BatchInstructions += m.ReadCounter(c, pmu.EventInstrRetired)
		res.BatchMisses += m.ReadCounter(c, pmu.EventLLCMisses)
		duty += m.Core(c).Utilization()
	}
	res.BatchDuty = duty / float64(len(cores))
	res.ChipUtilization = m.Utilization(1 + len(cores))
}

func runNative(s Scenario) Result {
	m := newMachine(s)
	lat := s.Latency.NewProcess(0, s.Seed)
	m.Bind(0, lat)
	specs := s.batchSpecs()
	batches := make([]*machine.Process, len(specs))
	cores := make([]int, len(specs))
	for i, b := range specs {
		batches[i] = b.prof.Batch().NewProcess(b.base, s.Seed+1+int64(i))
		m.Bind(b.core, batches[i])
		cores[i] = b.core
	}
	res := Result{Scenario: s}
	relaunches := make([]int, len(batches))
	for p := 0; p < s.MaxPeriods && !lat.Done(); p++ {
		m.RunPeriod()
		telemetry.RunnerPeriods.Inc()
		for i, b := range batches {
			if b.Done() {
				m.FlushCore(cores[i])
				b.Relaunch()
				res.Relaunches++
				relaunches[i]++
			}
		}
	}
	res.Completed = lat.Done()
	res.Periods = m.Periods()
	res.LatencyInstructions = lat.Retired()
	res.LatencyMisses = m.ReadCounter(0, pmu.EventLLCMisses)
	fillBatchTotals(&res, m, cores)
	for i, b := range specs {
		res.BatchResults = append(res.BatchResults, BatchResult{
			Name:         spec.ShortName(b.prof.Name),
			Core:         b.core,
			Domain:       m.DomainOf(b.core),
			Instructions: m.ReadCounter(b.core, pmu.EventInstrRetired),
			Misses:       m.ReadCounter(b.core, pmu.EventLLCMisses),
			Relaunches:   relaunches[i],
		})
	}
	return res
}

func runCAER(s Scenario) Result {
	m := newMachine(s)
	var opts []caer.Option
	if s.Actuator != nil {
		opts = append(opts, caer.WithActuator(s.Actuator))
	}
	rt := caer.NewRuntime(m, s.Heuristic, s.Config, opts...)
	lat := s.Latency.NewProcess(0, s.Seed)
	rt.AddLatency(spec.ShortName(s.Latency.Name), 0, lat)
	specs := s.batchSpecs()
	cores := make([]int, len(specs))
	for i, b := range specs {
		rt.AddBatch(spec.ShortName(b.prof.Name), b.core, b.prof.Batch().NewProcess(b.base, s.Seed+1+int64(i)))
		cores[i] = b.core
	}
	rt.RunUntil(lat.Done, s.MaxPeriods)
	res := Result{Scenario: s}
	res.Completed = lat.Done()
	res.Periods = m.Periods()
	res.LatencyInstructions = lat.Retired()
	res.LatencyMisses = m.ReadCounter(0, pmu.EventLLCMisses)
	fillBatchTotals(&res, m, cores)
	// Aggregate the decision counters over every engine: reading only
	// engines[0] under-reports whenever more than one batch is managed.
	for _, eng := range rt.Engines() {
		st := eng.Stats()
		res.CPositive += st.CPositive
		res.CNegative += st.CNegative
		res.PausedPeriods += st.PausedPeriods
		res.EngineLogs = append(res.EngineLogs, eng.Log().Events())
	}
	res.DecisionLog = res.EngineLogs[0]
	res.Relaunches = rt.Relaunches()
	res.Sampling = rt.SamplingStats()
	perBatch := rt.BatchRelaunches()
	for i, eng := range rt.Engines() {
		st := eng.Stats()
		res.BatchResults = append(res.BatchResults, BatchResult{
			Name:          spec.ShortName(specs[i].prof.Name),
			Core:          specs[i].core,
			Domain:        m.DomainOf(specs[i].core),
			Instructions:  m.ReadCounter(specs[i].core, pmu.EventInstrRetired),
			Misses:        m.ReadCounter(specs[i].core, pmu.EventLLCMisses),
			PausedPeriods: st.PausedPeriods,
			RunPeriods:    st.RunPeriods,
			CPositive:     st.CPositive,
			CNegative:     st.CNegative,
			Relaunches:    perBatch[i],
		})
	}
	return res
}

// runScheduled executes the scenario on a multi-LLC-domain machine with
// the batch side flowing through internal/sched: the latency app(s) are
// pinned services, the Jobs wait in the admission queue and are placed by
// the configured policy, each under a per-domain CAER engine. The run ends
// when the primary latency app completes AND every job has drained (or
// MaxPeriods).
func runScheduled(s Scenario) Result {
	if s.PartitionWays > 0 {
		panic("runner: PartitionWays is not supported in scheduled mode")
	}
	m := machine.New(machine.Config{Cores: s.Cores, Domains: s.Domains, Workers: s.Workers})
	defer m.StopWorkers()
	cfg := s.Sched
	cfg.Heuristic = s.Heuristic
	cfg.Caer = s.Config
	sd := sched.New(m, cfg)

	lat := s.Latency.NewProcess(0, s.Seed)
	sd.AddLatency(spec.ShortName(s.Latency.Name), 0, lat)
	usedLatency := map[int]bool{0: true}
	for i, p := range s.ExtraLatencies {
		d := (i + 1) % s.Domains
		lo, hi := m.DomainCores(d)
		core := -1
		for c := lo; c < hi; c++ {
			if !usedLatency[c] {
				core = c
				break
			}
		}
		if core < 0 {
			panic(fmt.Sprintf("runner: domain %d has no free core for extra latency app %d", d, i))
		}
		usedLatency[core] = true
		sd.AddLatency(spec.ShortName(p.Name), core,
			p.NewProcess(uint64(1<<27)+uint64(i)*extraBatchStride, s.Seed+100+int64(i)))
	}
	for i, p := range s.Jobs {
		p := p
		base := uint64(batchBase) + uint64(i)*extraBatchStride
		seed := s.Seed + 1 + int64(i)
		sd.Submit(sched.Job{Name: spec.ShortName(p.Name), New: func() *machine.Process {
			return p.NewProcess(base, seed)
		}})
	}

	sd.RunUntil(func() bool { return lat.Done() && sd.Done() }, s.MaxPeriods)

	res := Result{Scenario: s}
	res.Completed = lat.Done()
	res.Periods = sd.LatencyReports()[0].Done
	if res.Periods == 0 {
		res.Periods = sd.Period() // latency app never finished: bounded run
	}
	res.LatencyInstructions = lat.Retired()
	res.LatencyMisses = m.ReadCounter(0, pmu.EventLLCMisses)
	res.SchedDecisions = sd.Decisions()
	res.MaxWait = sd.MaxWait()
	res.Migrations = sd.Migrations()
	res.ChipUtilization = m.Utilization(s.Cores)

	// Batch duty in scheduled mode: the fraction of placed job-periods the
	// engines let run. Jobs on latency-free domains have no engine and
	// count as running every period they occupied a core.
	var run, paused float64
	for _, r := range sd.JobReports() {
		br := BatchResult{
			Name:          r.Name,
			Core:          r.Core,
			Domain:        r.Domain,
			Instructions:  r.Instructions,
			Misses:        r.Misses,
			PausedPeriods: r.PausedPeriods,
			RunPeriods:    r.RunPeriods,
			CPositive:     r.CPositive,
			CNegative:     r.CNegative,
			Waited:        r.Waited,
			Aged:          r.Aged,
			Admitted:      r.Admitted,
			DonePeriod:    r.Done,
			Completed:     r.State == sched.JobDone,
			Migrations:    r.Migrations,
		}
		res.BatchResults = append(res.BatchResults, br)
		res.BatchInstructions += r.Instructions
		res.BatchMisses += r.Misses
		res.CPositive += r.CPositive
		res.CNegative += r.CNegative
		res.PausedPeriods += r.PausedPeriods
		if br.Completed {
			res.JobsCompleted++
		}
		if r.RunPeriods+r.PausedPeriods > 0 {
			run += float64(r.RunPeriods)
			paused += float64(r.PausedPeriods)
		} else if r.Admitted > 0 && r.Done >= r.Admitted {
			run += float64(r.Done - r.Admitted + 1)
		}
	}
	if run+paused > 0 {
		res.BatchDuty = run / (run + paused)
	}
	return res
}
