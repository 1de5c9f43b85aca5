// Package caer is a reproduction of "Contention Aware Execution: Online
// Contention Detection and Response" (Mars, Vachharajani, Hundt, Soffa —
// CGO 2010) as a self-contained Go library.
//
// CAER co-locates a latency-sensitive application with throughput-oriented
// batch applications on one multicore chip, detects shared last-level-cache
// contention online from hardware performance counters, and throttles the
// batch applications when — and only when — they are hurting the
// latency-sensitive application. The result is most of the utilization of
// co-location with a small fraction of its interference penalty.
//
// Because the original system needs a real Nehalem-class PMU and the SPEC
// CPU2006 suite, this library ships a scaled multicore simulator substrate:
// a cycle-approximate machine (private L1/L2, shared inclusive L3, memory
// bandwidth model) executing 21 synthetic benchmark profiles calibrated to
// the paper's contention-sensitivity spectrum. The CAER runtime itself only
// consumes the PMU abstraction, so it is substrate-agnostic.
//
// # Quick start
//
//	m := caer.NewMachine(caer.MachineConfig{Cores: 2})
//	rt := caer.NewRuntime(m, caer.HeuristicRule, caer.DefaultConfig())
//	mcf, _ := caer.BenchmarkByName("mcf")
//	lat := mcf.NewProcess(0, 1)
//	rt.AddLatency("mcf", 0, lat)
//	rt.AddBatch("lbm", 1, caer.LBM().Batch().NewProcess(1<<28, 2))
//	rt.RunUntil(lat.Done, 1_000_000)
//
// Or run a whole paper-style scenario in one call:
//
//	r := caer.Run(caer.Scenario{
//		Latency:   mcf,
//		Mode:      caer.ModeCAER,
//		Heuristic: caer.HeuristicRule,
//	})
//
// The experiments sub-API regenerates every data figure of the paper's
// evaluation; see NewSuite.
//
//caer:deterministic
package caer

import (
	icaer "caer/internal/caer"
	"caer/internal/comm"
	"caer/internal/experiments"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/runner"
	"caer/internal/spec"
	"caer/internal/workload"
)

// Core runtime types (the paper's contribution).
type (
	// Config collects the CAER runtime tunables (§4–§6 parameters).
	Config = icaer.Config
	// HeuristicKind selects the detection/response pairing.
	HeuristicKind = icaer.HeuristicKind
	// Runtime is a deployed CAER environment over a machine.
	Runtime = icaer.Runtime
	// Option customizes a Runtime.
	Option = icaer.Option
	// Detector is an online contention-detection heuristic.
	Detector = icaer.Detector
	// Responder maps detection verdicts to throttling behaviour.
	Responder = icaer.Responder
	// Verdict is a detection outcome.
	Verdict = icaer.Verdict
	// EngineStats is an engine's decision log.
	EngineStats = icaer.EngineStats
	// Actuator applies throttling directives to a core.
	Actuator = icaer.Actuator
	// Directive is a reaction order in the communication table.
	Directive = comm.Directive
)

// Heuristic pairings evaluated in the paper.
const (
	// HeuristicShutter pairs burst-shutter detection with the
	// red-light/green-light response.
	HeuristicShutter = icaer.HeuristicShutter
	// HeuristicRule pairs rule-based detection with soft locking.
	HeuristicRule = icaer.HeuristicRule
	// HeuristicRandom is the §6.4 accuracy baseline.
	HeuristicRandom = icaer.HeuristicRandom
	// HeuristicHybrid is the rule-gate + shutter-confirm extension.
	HeuristicHybrid = icaer.HeuristicHybrid
)

// Detection verdicts.
const (
	VerdictPending      = icaer.VerdictPending
	VerdictContention   = icaer.VerdictContention
	VerdictNoContention = icaer.VerdictNoContention
)

// Directives.
const (
	DirectiveRun   = comm.DirectiveRun
	DirectivePause = comm.DirectivePause
)

// DefaultConfig returns the paper's configuration scaled to the simulated
// machine.
func DefaultConfig() Config { return icaer.DefaultConfig() }

// NewRuntime creates a CAER deployment on machine m.
func NewRuntime(m *Machine, kind HeuristicKind, cfg Config, opts ...Option) *Runtime {
	return icaer.NewRuntime(m, kind, cfg, opts...)
}

// WithActuator replaces the default pause actuator.
func WithActuator(a Actuator) Option { return icaer.WithActuator(a) }

// DVFSActuator returns an actuator that down-clocks instead of pausing
// (the related-work alternative response).
func DVFSActuator(divisor int) Actuator { return icaer.DVFSActuator(divisor) }

// NewShutterDetector, NewRuleDetector and NewRandomDetector expose the
// individual heuristics for custom engine wiring and tuning studies.
func NewShutterDetector(cfg Config) Detector { return icaer.NewShutterDetector(cfg) }

// NewRuleDetector constructs the Algorithm 2 heuristic.
func NewRuleDetector(cfg Config) Detector { return icaer.NewRuleDetector(cfg) }

// NewRandomDetector constructs the random baseline heuristic.
func NewRandomDetector(cfg Config) Detector { return icaer.NewRandomDetector(cfg) }

// NewHybridDetector constructs the rule-gate + shutter-confirm extension
// heuristic.
func NewHybridDetector(cfg Config) Detector { return icaer.NewHybridDetector(cfg) }

// Machine substrate types.
type (
	// Machine is the simulated multicore CPU.
	Machine = machine.Machine
	// MachineConfig configures a Machine.
	MachineConfig = machine.Config
	// Core is one processor core.
	Core = machine.Core
	// Process is one application bound to a core.
	Process = machine.Process
	// ExecProfile describes a process's instruction mix.
	ExecProfile = machine.ExecProfile
	// HierarchyConfig configures the memory hierarchy.
	HierarchyConfig = mem.HierarchyConfig
	// Generator produces a synthetic memory-reference stream.
	Generator = workload.Generator
)

// NewMachine constructs a simulated machine.
func NewMachine(cfg MachineConfig) *Machine { return machine.New(cfg) }

// NewProcess constructs a process from an execution profile and a
// reference-stream generator.
func NewProcess(name string, prof ExecProfile, gen Generator, seed int64) *Process {
	return machine.NewProcess(name, prof, gen, seed)
}

// DefaultHierarchyConfig returns the scaled Nehalem-like memory system.
func DefaultHierarchyConfig(cores int) HierarchyConfig {
	return mem.DefaultHierarchyConfig(cores)
}

// Benchmark suite types.
type (
	// Benchmark is one synthetic SPEC2006-like profile.
	Benchmark = spec.Profile
	// Sensitivity is a benchmark's interference-sensitivity class.
	Sensitivity = spec.Sensitivity
)

// Sensitivity classes.
const (
	Insensitive = spec.Insensitive
	Moderate    = spec.Moderate
	Sensitive   = spec.Sensitive
)

// Benchmarks returns all 21 paper benchmarks in figure order.
func Benchmarks() []Benchmark { return spec.All() }

// BenchmarkNames returns the benchmark names in figure order.
func BenchmarkNames() []string { return spec.Names() }

// BenchmarkByName looks a benchmark up by full ("429.mcf") or short
// ("mcf") name.
func BenchmarkByName(name string) (Benchmark, bool) { return spec.ByName(name) }

// LBM returns the paper's batch adversary.
func LBM() Benchmark { return spec.LBM() }

// Scenario execution types.
type (
	// Scenario describes one co-location experiment.
	Scenario = runner.Scenario
	// Result is a scenario outcome.
	Result = runner.Result
	// Mode selects alone / native co-location / CAER execution.
	Mode = runner.Mode
)

// Scenario modes.
const (
	ModeAlone      = runner.ModeAlone
	ModeNativeColo = runner.ModeNativeColo
	ModeCAER       = runner.ModeCAER
)

// Run executes a scenario to completion.
func Run(s Scenario) Result { return runner.Run(s) }

// Slowdown returns r's execution-time penalty relative to the alone run.
func Slowdown(r, alone Result) float64 { return runner.Slowdown(r, alone) }

// Overhead returns Slowdown − 1.
func Overhead(r, alone Result) float64 { return runner.Overhead(r, alone) }

// UtilizationGained returns the extra chip utilization co-location buys.
func UtilizationGained(r Result) float64 { return runner.UtilizationGained(r) }

// InterferenceEliminated returns the fraction of the native co-location
// penalty a managed run removes (Figure 8's metric).
func InterferenceEliminated(caerRun, colo, alone Result) float64 {
	return runner.InterferenceEliminated(caerRun, colo, alone)
}

// Accuracy is Equation 2: utilization gained relative to the random
// baseline, minus one.
func Accuracy(heuristic, random Result) float64 { return runner.Accuracy(heuristic, random) }

// Suite regenerates the paper's evaluation figures.
type Suite = experiments.Suite

// NewSuite returns an experiment suite over the full benchmark set.
func NewSuite() *Suite { return experiments.NewSuite() }
