package caer

import (
	"fmt"
	"strconv"

	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/pmu"
	"caer/internal/telemetry"
)

// HeuristicKind selects which detection/response pairing a runtime uses:
// the three configurations evaluated in the paper plus the hybrid
// extension.
//
//caer:enum
type HeuristicKind int

const (
	// HeuristicShutter pairs the burst-shutter detector with the
	// red-light/green-light response (paper §6.2).
	HeuristicShutter HeuristicKind = iota
	// HeuristicRule pairs the rule-based detector with the soft-locking
	// response (paper §6.2).
	HeuristicRule
	// HeuristicRandom is the §6.4 accuracy baseline: random detection with
	// a length-1 red-light/green-light response.
	HeuristicRandom
	// HeuristicHybrid is an extension beyond the paper: rule-based gating
	// with burst-shutter confirmation, paired with red-light/green-light.
	HeuristicHybrid
)

// String names the heuristic pairing.
func (h HeuristicKind) String() string {
	switch h {
	case HeuristicShutter:
		return "shutter"
	case HeuristicRule:
		return "rule-based"
	case HeuristicRandom:
		return "random"
	case HeuristicHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("HeuristicKind(%d)", int(h))
	}
}

// NewDetector builds the detector half of the pairing.
func (h HeuristicKind) NewDetector(cfg Config) Detector {
	switch h {
	case HeuristicShutter:
		return NewShutterDetector(cfg)
	case HeuristicRule:
		return NewRuleDetector(cfg)
	case HeuristicRandom:
		return NewRandomDetector(cfg)
	case HeuristicHybrid:
		return NewHybridDetector(cfg)
	default:
		panic(fmt.Sprintf("caer: unknown heuristic %d", int(h)))
	}
}

// NewResponder builds the response half of the pairing.
func (h HeuristicKind) NewResponder(cfg Config) Responder {
	switch h {
	case HeuristicShutter:
		return NewRedLightGreenLight(cfg)
	case HeuristicRule:
		return NewSoftLock(cfg)
	case HeuristicRandom:
		// The paper's baseline uses red-light/green-light with length 1.
		cfg.ResponseLength = 1
		cfg.AdaptiveResponse = false
		return NewRedLightGreenLight(cfg)
	case HeuristicHybrid:
		return NewRedLightGreenLight(cfg)
	default:
		panic(fmt.Sprintf("caer: unknown heuristic %d", int(h)))
	}
}

// Actuator applies a directive to a batch application's core. The default
// actuator pauses/resumes execution; a DVFS actuator instead drops the
// core's frequency (the related-work alternative response, paper §7).
type Actuator func(core *machine.Core, d comm.Directive)

// PauseActuator implements the paper's throttling: DirectivePause halts
// the core entirely.
func PauseActuator(core *machine.Core, d comm.Directive) {
	core.SetPaused(d == comm.DirectivePause)
}

// DVFSActuator returns an actuator that models per-core dynamic frequency
// scaling: DirectivePause runs the core at 1/divisor speed instead of
// halting it.
func DVFSActuator(divisor int) Actuator {
	if divisor < 2 {
		panic(fmt.Sprintf("caer: DVFS divisor %d must be >= 2", divisor))
	}
	return func(core *machine.Core, d comm.Directive) {
		if d == comm.DirectivePause {
			core.SetFreqDivisor(divisor)
		} else {
			core.SetFreqDivisor(1)
		}
	}
}

// app is one hosted application.
type app struct {
	name string
	core int
	proc *machine.Process
	slot *comm.Slot
}

// Runtime is the deployed CAER environment over a simulated machine: the
// communication table, one CAER-M monitor per latency-sensitive
// application, and one engine per batch application. Step runs one
// sampling period end to end.
type Runtime struct {
	m     *machine.Machine
	cfg   Config
	kind  HeuristicKind
	table *comm.Table
	// src is the counter source the monitors' and engines' PMUs probe.
	// It defaults to the machine itself; WithSource interposes another
	// implementation (e.g. a pmu.FaultSource for chaos experiments, or a
	// real perf_event backend).
	src pmu.Source

	latency  []app
	batch    []app
	monitors []*Monitor
	engines  []*Engine
	enginePM []*pmu.PMU
	actuator Actuator

	relaunches      int
	batchRelaunches []int // per batch application, in registration order
	started         bool

	// Sampling-schedule state (DESIGN.md §13). probeWait counts down the
	// periods until the next scheduled probe; probeElapsed counts up the
	// periods the next probe's counter deltas will span. lastCombined is
	// the directive issued at the most recent probe — it keeps actuating
	// (and feeding the quiet check) across skipped periods.
	ctl          *IntervalController // adaptive mode only
	triggers     []*pmu.Threshold    // interrupt mode: one per latency core
	probeWait    int
	probeElapsed int
	sleeping     bool   // interrupt mode: pipeline parked behind the triggers
	armedStart   uint64 // machine period the current sleep stretch began
	quietStreak  int    // interrupt mode: consecutive quiet probes while awake
	lastCombined comm.Directive
	sstats       SamplingStats

	// Per-core live gauges for caer-top, registered once in start() so the
	// per-period updates in Step stay allocation-free.
	latGauges []coreGauges // one per latency app
	engGauges []coreGauges // one per batch app
}

// coreGauges is one core's live telemetry view.
type coreGauges struct {
	pressure  *telemetry.Gauge // windowed LLC-miss mean
	directive *telemetry.Gauge // 0 = run, 1 = pause (batch only)
	degraded  *telemetry.Gauge // 1 while failing open (batch only)
}

// Option customizes a Runtime.
type Option func(*Runtime)

// WithActuator replaces the default pause actuator.
func WithActuator(a Actuator) Option {
	return func(rt *Runtime) { rt.actuator = a }
}

// WithSource interposes a pmu.Source between the machine's counters and
// the runtime's PMUs. The machine still executes the workloads; only the
// counter reads go through src. Chaos experiments use this to inject
// counter faults without touching the runtime logic.
func WithSource(src pmu.Source) Option {
	if src == nil {
		panic("caer: WithSource needs a source")
	}
	return func(rt *Runtime) { rt.src = src }
}

// NewRuntime creates a CAER deployment on machine m using the given
// heuristic pairing and configuration. Applications are added with
// AddLatency/AddBatch before the first Step.
func NewRuntime(m *machine.Machine, kind HeuristicKind, cfg Config, opts ...Option) *Runtime {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	rt := &Runtime{
		m:        m,
		cfg:      cfg,
		kind:     kind,
		table:    comm.NewTable(cfg.WindowSize),
		src:      m,
		actuator: PauseActuator,
	}
	for _, o := range opts {
		o(rt)
	}
	return rt
}

// Table exposes the communication table (for inspection and tests).
func (rt *Runtime) Table() *comm.Table { return rt.table }

// Heuristic returns the configured pairing.
func (rt *Runtime) Heuristic() HeuristicKind { return rt.kind }

// Engines returns the batch engines (one per batch application).
func (rt *Runtime) Engines() []*Engine { return rt.engines }

// Monitors returns the CAER-M monitors (one per latency-sensitive
// application), in registration order. Chaos experiments use them to
// simulate monitor crashes.
func (rt *Runtime) Monitors() []*Monitor { return rt.monitors }

// Relaunches returns how many times completed batch applications were
// relaunched.
func (rt *Runtime) Relaunches() int { return rt.relaunches }

// BatchRelaunches returns each batch application's relaunch count, in
// registration order (nil before the first Step).
func (rt *Runtime) BatchRelaunches() []int {
	out := make([]int, len(rt.batchRelaunches))
	copy(out, rt.batchRelaunches)
	return out
}

// AddLatency binds a latency-sensitive application to a core under a
// CAER-M monitor. The application itself is never modified.
func (rt *Runtime) AddLatency(name string, core int, proc *machine.Process) {
	rt.mustNotBeStarted()
	rt.m.Bind(core, proc)
	slot := rt.table.Register(name, comm.RoleLatency)
	rt.latency = append(rt.latency, app{name: name, core: core, proc: proc, slot: slot})
	rt.monitors = append(rt.monitors, NewMonitor(pmu.New(rt.src, core), slot))
}

// AddBatch binds a batch application to a core under a full CAER engine.
// Engines are created lazily at the first Step so that every engine sees
// all latency-sensitive slots regardless of registration order.
func (rt *Runtime) AddBatch(name string, core int, proc *machine.Process) {
	rt.mustNotBeStarted()
	rt.m.Bind(core, proc)
	slot := rt.table.Register(name, comm.RoleBatch)
	rt.batch = append(rt.batch, app{name: name, core: core, proc: proc, slot: slot})
}

func (rt *Runtime) mustNotBeStarted() {
	if rt.started {
		panic("caer: applications must be added before the first Step")
	}
}

//caer:cold one-time lazy deployment build inside the first Step; later periods only check a flag
func (rt *Runtime) start() {
	if len(rt.latency) == 0 || len(rt.batch) == 0 {
		panic("caer: runtime needs at least one latency-sensitive and one batch application")
	}
	neighborSlots := make([]*comm.Slot, len(rt.latency))
	for i, a := range rt.latency {
		neighborSlots[i] = a.slot
	}
	for _, b := range rt.batch {
		eng := NewEngine(rt.kind.NewDetector(rt.cfg), rt.kind.NewResponder(rt.cfg), b.slot, neighborSlots)
		eng.SetWatchdog(rt.cfg.WatchdogPeriods)
		if rt.cfg.EventLogCap > 0 {
			eng.SetLogCapacity(rt.cfg.EventLogCap)
		}
		rt.engines = append(rt.engines, eng)
		rt.enginePM = append(rt.enginePM, pmu.New(rt.src, b.core))
		rt.engGauges = append(rt.engGauges, rt.registerCoreGauges(b, comm.RoleBatch))
	}
	for _, a := range rt.latency {
		rt.latGauges = append(rt.latGauges, rt.registerCoreGauges(a, comm.RoleLatency))
	}
	rt.batchRelaunches = make([]int, len(rt.batch))
	rt.sstats.Mode = rt.cfg.Sampling
	rt.sstats.WidestInterval = 1
	rt.probeWait = 1
	switch rt.cfg.Sampling {
	case SamplingPolling:
	case SamplingAdaptive:
		rt.ctl = NewIntervalController(rt.cfg.MaxProbeInterval, rt.cfg.SampleGrowth, rt.cfg.QuietProbes)
	case SamplingInterrupt:
		bound := rt.cfg.TriggerBound
		if bound <= 0 {
			bound = rt.cfg.NoiseThresh * float64(rt.cfg.TriggerWindow)
		}
		if bound < 1 {
			bound = 1
		}
		for _, a := range rt.latency {
			rt.triggers = append(rt.triggers, pmu.NewThreshold(rt.src, a.core, pmu.ThresholdConfig{
				Event:  pmu.EventLLCMisses,
				Bound:  uint64(bound),
				Window: rt.cfg.TriggerWindow,
			}))
		}
	default:
		panic(fmt.Sprintf("caer: unknown sampling mode %d", int(rt.cfg.Sampling)))
	}
	telemetry.EngineMode.Set(float64(rt.cfg.Sampling))
	telemetry.SamplingInterval.Set(1)
	rt.started = true
}

// Triggers returns the interrupt-mode threshold triggers, in latency-app
// registration order (nil in other modes; for inspection and tests).
func (rt *Runtime) Triggers() []*pmu.Threshold { return rt.triggers }

// SamplingStats returns the runtime's sampling-schedule counters.
func (rt *Runtime) SamplingStats() SamplingStats { return rt.sstats }

// Sleeping reports whether the interrupt mode currently has the pipeline
// parked behind its threshold triggers.
func (rt *Runtime) Sleeping() bool { return rt.sleeping }

// registerCoreGauges pre-registers one application's live per-core series.
// Setup path: registration allocates so Step does not have to.
func (rt *Runtime) registerCoreGauges(a app, role comm.Role) coreGauges {
	reg := telemetry.Default()
	kv := []string{"core", strconv.Itoa(a.core), "app", a.name, "role", role.String()}
	g := coreGauges{
		pressure: reg.Gauge("caer_core_pressure", "windowed LLC-miss mean per core", kv...),
	}
	if role == comm.RoleBatch {
		g.directive = reg.Gauge("caer_core_directive", "current directive per batch core (0 run, 1 pause)", kv...)
		g.degraded = reg.Gauge("caer_core_degraded", "1 while the core's engine is failing open", kv...)
	}
	return g
}

// Step executes one sampling period: run the machine for one period,
// advance the table clock, and — on probe periods — run the detection
// pipeline end to end: every CAER-M monitor publishes its application's
// sample, every engine ticks, their directives combine (all batch
// applications must react together, §3.2 — any engine asserting pause
// pauses them all). Every period, probe or not, the combined directive is
// re-applied through the actuator and completed batch applications are
// relaunched (§6.1).
//
// Under polling every period is a probe period. The adaptive mode probes
// every probeWait periods as decided by the interval controller; the
// interrupt mode parks the pipeline behind per-latency-core threshold
// triggers once the system has been quiet, checking only the triggers
// (plus a keepalive probe every MaxProbeInterval periods, which is also
// what lets the watchdog see a dead monitor through the sleep).
//
//caer:hot
func (rt *Runtime) Step() {
	if !rt.started {
		rt.start()
	}
	rt.m.RunPeriod()
	telemetry.RunnerPeriods.Inc()
	// Advance the table's period clock before this period's publishes so
	// StalePeriods counts publisher lateness in whole periods.
	rt.table.BumpPeriod()
	rt.probeElapsed++
	probe := true
	switch rt.cfg.Sampling {
	case SamplingPolling:
	case SamplingAdaptive:
		rt.probeWait--
		probe = rt.probeWait <= 0
	case SamplingInterrupt:
		rt.probeWait--
		if rt.sleeping {
			fired := 0
			for _, tr := range rt.triggers {
				if tr.Check() {
					fired++
				}
			}
			if fired > 0 {
				rt.wake(fired)
			} else {
				probe = rt.probeWait <= 0 // keepalive probe
			}
		}
	}
	if probe {
		rt.probe(rt.probeElapsed)
		rt.afterProbe()
		rt.probeElapsed = 0
	} else {
		rt.sstats.SkippedPeriods++
		telemetry.PMUProbesSkipped.Inc()
	}
	for i := range rt.batch {
		b := &rt.batch[i]
		rt.actuator(rt.m.Core(b.core), rt.lastCombined)
		if b.proc.Done() {
			rt.m.FlushCore(b.core)
			b.proc.Relaunch()
			rt.relaunches++
			rt.batchRelaunches[i]++
			telemetry.RunnerRelaunches.Inc()
		}
	}
}

// probe runs the full detection pipeline for one probe covering elapsed
// machine periods (1 under polling): monitor publishes, engine ticks, the
// combined broadcast, and the live gauges. Counter deltas are normalized
// by elapsed so every window stays in misses-per-period units.
func (rt *Runtime) probe(elapsed int) {
	rt.sstats.ProbePeriods++
	if rt.sleeping {
		rt.sstats.Keepalives++
	}
	for _, mon := range rt.monitors {
		mon.TickSpan(uint64(elapsed))
	}
	combined := comm.DirectiveRun
	for i, eng := range rt.engines {
		own := float64(rt.enginePM[i].ReadDelta(pmu.EventLLCMisses)) / float64(elapsed)
		if eng.Tick(own) == comm.DirectivePause {
			combined = comm.DirectivePause
		}
	}
	rt.table.BroadcastDirective(combined)
	rt.lastCombined = combined
	for i, a := range rt.latency {
		rt.latGauges[i].pressure.Set(a.slot.WindowMean())
	}
	for i, eng := range rt.engines {
		g := rt.engGauges[i]
		g.pressure.Set(eng.OwnMean())
		if eng.Directive() == comm.DirectivePause {
			g.directive.Set(1)
		} else {
			g.directive.Set(0)
		}
		if eng.Degraded() {
			g.degraded.Set(1)
		} else {
			g.degraded.Set(0)
		}
	}
}

// afterProbe advances the sampling schedule with the probe's outcome,
// deciding when the next probe lands and declaring the chosen cadence to
// the comm table so deliberate skips do not read as publisher death.
func (rt *Runtime) afterProbe() {
	switch rt.cfg.Sampling {
	case SamplingPolling:
		rt.probeWait = 1
	case SamplingAdaptive:
		next := rt.ctl.Observe(rt.quiet())
		if next > 1 {
			rt.declareCadence(uint64(next))
		}
		if next > rt.sstats.WidestInterval {
			rt.sstats.WidestInterval = next
		}
		rt.probeWait = next
		telemetry.SamplingInterval.Set(float64(next))
	case SamplingInterrupt:
		if rt.sleeping {
			// A keepalive probe landed while parked. Quiet: stay parked.
			// Not quiet: pressure crept up without crossing the trigger
			// bound (or a hidden failure surfaced) — wake and probe every
			// period again.
			if rt.quiet() {
				rt.declareCadence(uint64(rt.cfg.MaxProbeInterval))
				rt.probeWait = rt.cfg.MaxProbeInterval
				return
			}
			rt.wake(0)
			rt.probeWait = 1
			return
		}
		if rt.quiet() {
			rt.quietStreak++
		} else {
			rt.quietStreak = 0
		}
		if rt.quietStreak >= rt.cfg.QuietProbes {
			rt.sleep()
		} else {
			rt.probeWait = 1
		}
	}
}

// quiet reports whether the probe found the system at a rest point: every
// engine idle, the combined directive Run, every neighbour's latest
// per-period pressure below the noise threshold, and no publisher late
// against its declared cadence. Only then may the schedule widen.
func (rt *Runtime) quiet() bool {
	if rt.lastCombined == comm.DirectivePause {
		return false
	}
	for _, eng := range rt.engines {
		if !eng.Idle() {
			return false
		}
	}
	for _, a := range rt.latency {
		if a.slot.LastSample() >= rt.cfg.NoiseThresh {
			return false
		}
		if a.slot.StalePeriods() > 0 {
			return false
		}
	}
	return true
}

// declareCadence re-stamps every on-schedule slot's expected next publish
// to cadence periods out. Slots already late (a dead monitor) are left
// alone so their staleness keeps accruing toward the watchdog horizon —
// the schedule must never mask a real failure.
func (rt *Runtime) declareCadence(cadence uint64) {
	for _, a := range rt.latency {
		if a.slot.StalePeriods() == 0 {
			a.slot.DeclareCadence(cadence)
		}
	}
	for _, b := range rt.batch {
		if b.slot.StalePeriods() == 0 {
			b.slot.DeclareCadence(cadence)
		}
	}
}

// sleep parks the pipeline behind the threshold triggers: arm them at the
// current counts, declare the keepalive cadence, and record the sleep
// start for the armed span.
func (rt *Runtime) sleep() {
	rt.sleeping = true
	rt.quietStreak = 0
	rt.armedStart = rt.m.Periods()
	for _, tr := range rt.triggers {
		tr.Arm()
	}
	rt.declareCadence(uint64(rt.cfg.MaxProbeInterval))
	rt.probeWait = rt.cfg.MaxProbeInterval
	if rt.cfg.MaxProbeInterval > rt.sstats.WidestInterval {
		rt.sstats.WidestInterval = rt.cfg.MaxProbeInterval
	}
	telemetry.SamplingInterval.Set(float64(rt.cfg.MaxProbeInterval))
}

// wake ends a sleep stretch — fired > 0 when threshold triggers woke the
// pipeline, 0 when a keepalive probe found the rest point gone. The armed
// span (and, on a fire, the fired marker) is recorded on every engine
// lane, stamped in machine periods (engine ticks do not advance during
// sleep).
func (rt *Runtime) wake(fired int) {
	rt.sleeping = false
	rt.quietStreak = 0
	now := rt.m.Periods()
	n := now - rt.armedStart
	if n == 0 {
		n = 1
	}
	val := 0.0
	if fired > 0 {
		val = 1
		rt.sstats.TriggerFires++
	}
	for _, eng := range rt.engines {
		eng.spans.Record(eng.track, telemetry.SpanArmed, rt.armedStart, uint32(n), val)
		if fired > 0 {
			eng.spans.Record(eng.track, telemetry.SpanFired, now, 1, float64(fired))
		}
	}
	telemetry.SamplingInterval.Set(1)
}

// RunUntil steps until stop returns true or maxPeriods elapse, returning
// the number of periods executed.
func (rt *Runtime) RunUntil(stop func() bool, maxPeriods int) int {
	for i := 0; i < maxPeriods; i++ {
		if stop() {
			return i
		}
		rt.Step()
	}
	return maxPeriods
}

// LatencyProcesses returns the hosted latency-sensitive processes.
func (rt *Runtime) LatencyProcesses() []*machine.Process {
	out := make([]*machine.Process, len(rt.latency))
	for i, a := range rt.latency {
		out[i] = a.proc
	}
	return out
}

// BatchProcesses returns the hosted batch processes.
func (rt *Runtime) BatchProcesses() []*machine.Process {
	out := make([]*machine.Process, len(rt.batch))
	for i, a := range rt.batch {
		out[i] = a.proc
	}
	return out
}

// BatchCores returns the core indices hosting batch applications.
func (rt *Runtime) BatchCores() []int {
	out := make([]int, len(rt.batch))
	for i, a := range rt.batch {
		out[i] = a.core
	}
	return out
}

// LatencyCores returns the core indices hosting latency-sensitive
// applications.
func (rt *Runtime) LatencyCores() []int {
	out := make([]int, len(rt.latency))
	for i, a := range rt.latency {
		out[i] = a.core
	}
	return out
}
