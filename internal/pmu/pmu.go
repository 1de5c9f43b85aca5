// Package pmu models the hardware performance monitoring unit the CAER
// runtime probes. It mirrors the perfmon2-style discipline the paper uses:
// counters accumulate in hardware with zero instrumentation overhead, and a
// periodic (1 ms) software probe reads and restarts them, yielding
// per-period deltas.
//
// The CAER code consumes only this package's API; it never touches simulator
// ground truth, so the same runtime logic would drive a real PMU backend
// (see internal/perf for a Linux perf_event_open implementation of Source).
package pmu

import (
	"fmt"

	"caer/internal/telemetry"
)

// Event identifies a hardware event a counter can be programmed to count.
//
//caer:enum
type Event int

// Supported events. EventLLCMisses and EventInstrRetired are the two the
// paper's heuristics and figures rely on.
const (
	EventLLCMisses Event = iota
	EventLLCAccesses
	EventInstrRetired
	EventCycles
	EventL2Misses
	numEvents
)

// Events returns all defined events, in stable order.
func Events() []Event {
	evs := make([]Event, numEvents)
	for i := range evs {
		evs[i] = Event(i)
	}
	return evs
}

// String returns the conventional event mnemonic.
func (e Event) String() string {
	switch e {
	case EventLLCMisses:
		return "LLC_MISSES"
	case EventLLCAccesses:
		return "LLC_REFERENCES"
	case EventInstrRetired:
		return "INSTRUCTIONS_RETIRED"
	case EventCycles:
		return "UNHALTED_CYCLES"
	case EventL2Misses:
		return "L2_MISSES"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Source exposes raw, monotonically non-decreasing cumulative event counts
// per core. The machine simulator implements Source; so does the optional
// real-hardware backend.
type Source interface {
	// ReadCounter returns the cumulative count of ev on core since boot.
	ReadCounter(core int, ev Event) uint64
}

// Peeker is an optional Source refinement: a side-effect-free counter read.
// Sources that interpose per-read behaviour on ReadCounter — most notably
// FaultSource, whose seeded fault schedule advances one roll per read —
// implement Peeker so that observational reads (PMU.Peek, threshold trigger
// checks) do not perturb the read-sequence-keyed state. Sources without
// per-read state need not implement it; resolvePeeker falls back to
// ReadCounter, which is already side-effect-free for them.
type Peeker interface {
	// PeekCounter returns the same cumulative count ReadCounter would,
	// without consuming any per-read schedule or mutating source state.
	PeekCounter(core int, ev Event) uint64
}

// peekFunc is a resolved side-effect-free read path for one source.
type peekFunc func(core int, ev Event) uint64

// resolvePeeker returns src's side-effect-free read path: PeekCounter when
// the source implements Peeker, plain ReadCounter otherwise. Resolved once
// at construction so hot-path reads carry no type assertion.
func resolvePeeker(src Source) peekFunc {
	if pk, ok := src.(Peeker); ok {
		return pk.PeekCounter
	}
	return src.ReadCounter
}

// PMU is one core's programmed counter set with read-and-restart sampling
// semantics: ReadDelta returns the count accumulated since the previous
// ReadDelta (or since Arm), exactly like reading and zeroing a hardware
// counter each sampling period.
type PMU struct {
	src  Source
	peek peekFunc
	core int
	last [numEvents]uint64
}

// New returns a PMU view over core's counters, armed at the source's
// current counts (so the first ReadDelta covers only the first period).
func New(src Source, core int) *PMU {
	p := &PMU{src: src, peek: resolvePeeker(src), core: core}
	p.Arm()
	return p
}

// Core returns the core this PMU monitors.
func (p *PMU) Core() int { return p.core }

// Arm (re)bases every counter at the source's current value, discarding any
// accumulated deltas.
func (p *PMU) Arm() {
	for e := Event(0); e < numEvents; e++ {
		p.last[e] = p.src.ReadCounter(p.core, e)
	}
}

// ReadDelta returns the count of ev accumulated since the last ReadDelta of
// ev (or Arm) and restarts the counter.
//
// A hardware counter is not guaranteed to be monotone in deployment: a
// perf_event fd can be reset under the reader (PERF_EVENT_IOC_RESET,
// reset-on-exec), a counter can be reprogrammed by another agent, or a
// probe can race a wrap. When the source regresses, subtracting would
// produce a ~2^64 underflow delta that poisons every window downstream, so
// the PMU instead re-arms at the regressed value and reports a zero delta
// for the period; counting resumes from the new base on the next probe.
func (p *PMU) ReadDelta(ev Event) uint64 {
	telemetry.PMUReads.Inc()
	cur := p.src.ReadCounter(p.core, ev)
	last := p.last[ev]
	p.last[ev] = cur
	if cur < last {
		telemetry.PMURearms.Inc()
		return 0
	}
	return cur - last
}

// Peek returns the delta accumulated since the last ReadDelta without
// restarting the counter. Like ReadDelta it reports 0 (rather than an
// underflow) when the source has regressed below the armed base; the base
// is left untouched, so the next ReadDelta performs the re-arm.
//
// Peek is fault-transparent: it reads through the source's Peeker path when
// available, so interleaving Peeks with ReadDeltas cannot advance a seeded
// FaultSource's schedule or double-apply a per-read fault to one period.
//
//caer:hot
func (p *PMU) Peek(ev Event) uint64 {
	cur := p.peek(p.core, ev)
	if cur < p.last[ev] {
		return 0
	}
	return cur - p.last[ev]
}

// Sample is a set of per-event deltas captured by one periodic probe.
// Values is indexed by Event; events the sampler was not configured for
// stay zero. The fixed array keeps Probe allocation-free — the probe runs
// every sampling period and must not create garbage-collector pressure.
type Sample struct {
	Period uint64
	Values [numEvents]uint64
}

// Sampler performs periodic probing of a PMU for a configured event set and
// optionally records the full time series (used to regenerate the paper's
// Figure 3 phase plots).
type Sampler struct {
	pmu     *PMU
	events  []Event
	record  bool
	history []Sample
	period  uint64
}

// NewSampler returns a sampler over pmu for the given events. If record is
// true every sample is retained in order.
func NewSampler(pmu *PMU, events []Event, record bool) *Sampler {
	if len(events) == 0 {
		panic("pmu: sampler needs at least one event")
	}
	evs := make([]Event, len(events))
	copy(evs, events)
	return &Sampler{pmu: pmu, events: evs, record: record}
}

// Probe reads and restarts every configured event, returning the sample.
// Each call represents one sampling period (1 ms in the paper). The probe
// itself is allocation-free; only the opt-in recording mode grows state.
//
//caer:hot
func (s *Sampler) Probe() Sample {
	telemetry.PMUProbes.Inc()
	sm := Sample{Period: s.period}
	for _, e := range s.events {
		sm.Values[e] = s.pmu.ReadDelta(e)
	}
	s.period++
	if s.record {
		//caer:allow hotpath recording is opt-in tracing for figure regeneration, not the deployed per-period path
		s.history = append(s.history, sm)
	}
	return sm
}

// History returns a copy of the recorded samples (nil unless recording).
// Copying keeps callers from mutating recorded history or aliasing the
// backing array a later Probe may append into; this is the cold export
// path, so the allocation is acceptable.
func (s *Sampler) History() []Sample {
	if s.history == nil {
		return nil
	}
	out := make([]Sample, len(s.history))
	copy(out, s.history)
	return out
}

// Series extracts one event's per-period values from the recorded history.
func (s *Sampler) Series(ev Event) []float64 {
	out := make([]float64, len(s.history))
	for i, sm := range s.history {
		out[i] = float64(sm.Values[ev])
	}
	return out
}

// Periods returns the number of probes performed.
func (s *Sampler) Periods() uint64 { return s.period }
