// Package caer implements the paper's contribution: the Contention Aware
// Execution Runtime. It contains the CAER-M monitor layer (under
// latency-sensitive applications), the CAER engine (under batch
// applications), the two online contention-detection heuristics of §4
// (Burst-Shutter, Algorithm 1; Rule-Based, Algorithm 2) plus the random
// baseline of §6.4, and the contention responses of §5
// (red-light/green-light — fixed and adaptive — and soft locking), wired
// together by the detect/respond state machine of Figure 5.
//
// All PMU access goes through internal/pmu and all cross-layer
// communication through internal/comm, so the runtime is backend-agnostic:
// the same code drives the simulated machine and could drive real hardware
// counters.
//
//caer:deterministic
package caer

import "fmt"

// Config collects every tunable of the CAER runtime. The defaults are the
// paper's settings (§6.2) translated to the scaled machine model: the
// paper's usage threshold of 1500 LLC misses per 1 ms period on an 8 MB L3
// scales to 150 misses per 60,000-cycle period on the 512 KB L3 (the same
// order of misses-per-cache-line-per-period density), and the shutter/burst
// spans are stretched so the shutter outlasts the shared cache's refill
// transient — on this machine, as on the paper's, the neighbour needs a few
// periods of solitude before its miss rate reflects the batch's absence.
type Config struct {
	// WindowSize is the communication-table sample window length in
	// periods (the l_window/r_window size of Algorithms 1 and 2).
	WindowSize int

	// Shutter (Algorithm 1) parameters.
	// SwitchPoint is how many periods the batch is halted (shutter closed)
	// to measure the neighbour's steady LLC-miss average.
	SwitchPoint int
	// EndPoint is the period count at which the burst average is computed;
	// periods [SwitchPoint, EndPoint) run the batch at full force.
	EndPoint int
	// ImpactFactor is the relative spike ("5%" in the paper) the burst
	// average must exceed the steady average by to assert contention.
	ImpactFactor float64
	// NoiseThresh is the absolute miss-count floor the spike must also
	// clear, filtering measurement noise on quiet neighbours.
	NoiseThresh float64
	// TransientSkip is how many leading periods of each shutter/burst
	// measurement span are excluded from its average. When the batch halts
	// (or bursts), the neighbour's miss rate takes several periods to
	// settle — the shared cache must drain or refill — and Algorithm 1's
	// averages are only meaningful over the settled tail. Must satisfy
	// TransientSkip+1 < SwitchPoint and SwitchPoint+TransientSkip < EndPoint.
	TransientSkip int

	// Rule-based (Algorithm 2) parameter: both applications' window
	// averages must reach UsageThresh misses/period to assert contention.
	UsageThresh float64

	// ResponseLength is the red-light/green-light hold length in periods
	// (10 in the paper's evaluation).
	ResponseLength int
	// AdaptiveResponse enables the §5 extension: the hold length grows
	// while detections keep producing the same verdict, up to
	// MaxResponseLength.
	AdaptiveResponse  bool
	MaxResponseLength int

	// RandomP is the contention probability of the random baseline
	// heuristic (0.5 in §6.4).
	RandomP float64
	// RandomSeed seeds the baseline heuristic.
	RandomSeed int64

	// WatchdogPeriods is the engine watchdog horizon: after this many
	// consecutive periods in which some neighbour slot received no fresh
	// sample, the engine enters the degraded fail-open state (emit
	// DirectiveRun, stop trusting the frozen windows) until samples
	// resume. 0 disables the watchdog — an engine driven outside a
	// Runtime, whose table period never advances, is never degraded.
	WatchdogPeriods int

	// EventLogCap bounds each engine's decision log to the most recent
	// EventLogCap events (drop-oldest; evictions are counted and surfaced
	// through telemetry as caer_engine_log_dropped_total). 0 keeps the
	// default capacity of 4096.
	EventLogCap int

	// Sampling selects how the runtime schedules the detection pipeline
	// (DESIGN.md §13). The zero value is the paper's every-period polling,
	// so existing configurations are unchanged; the sampling knobs below
	// are ignored (and not validated) under polling.
	Sampling SamplingMode
	// MaxProbeInterval is the adaptive controller's interval ceiling and
	// the interrupt mode's keepalive cadence, in periods. It should stay
	// well below WatchdogPeriods — skipped probes declare their cadence to
	// the comm table, but the keepalive is also what bounds how long a
	// dead monitor can hide behind the sleep.
	MaxProbeInterval int
	// SampleGrowth is the adaptive controller's multiplicative widening
	// factor (>= 2).
	SampleGrowth int
	// QuietProbes is the hysteresis bound shared by both modes: the
	// adaptive interval widens (and the interrupt mode goes to sleep) only
	// after this many consecutive quiet probes.
	QuietProbes int
	// TriggerWindow is the interrupt trigger's sliding-window length in
	// periods.
	TriggerWindow int
	// TriggerBound is the windowed neighbour LLC-miss sum that fires the
	// interrupt trigger. 0 derives NoiseThresh * TriggerWindow — the
	// window-equivalent of the noise floor the adaptive mode compares
	// against.
	TriggerBound float64
}

// DefaultConfig returns the paper's configuration scaled to the simulated
// machine.
func DefaultConfig() Config {
	return Config{
		WindowSize:        10,
		SwitchPoint:       10,
		EndPoint:          20,
		ImpactFactor:      0.05,
		NoiseThresh:       20,
		TransientSkip:     5,
		UsageThresh:       150,
		ResponseLength:    10,
		AdaptiveResponse:  false,
		MaxResponseLength: 80,
		RandomP:           0.5,
		RandomSeed:        1,
		WatchdogPeriods:   30,
		Sampling:          SamplingPolling,
		MaxProbeInterval:  16,
		SampleGrowth:      2,
		QuietProbes:       3,
		TriggerWindow:     4,
		TriggerBound:      0, // derived: NoiseThresh * TriggerWindow
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.WindowSize <= 0:
		return fmt.Errorf("caer: WindowSize %d must be positive", c.WindowSize)
	case c.SwitchPoint <= 0:
		return fmt.Errorf("caer: SwitchPoint %d must be positive", c.SwitchPoint)
	case c.EndPoint <= c.SwitchPoint:
		return fmt.Errorf("caer: EndPoint %d must exceed SwitchPoint %d", c.EndPoint, c.SwitchPoint)
	case c.ImpactFactor < 0:
		return fmt.Errorf("caer: ImpactFactor %v must be non-negative", c.ImpactFactor)
	case c.NoiseThresh < 0:
		return fmt.Errorf("caer: NoiseThresh %v must be non-negative", c.NoiseThresh)
	case c.TransientSkip < 0:
		return fmt.Errorf("caer: TransientSkip %d must be non-negative", c.TransientSkip)
	case c.TransientSkip+1 >= c.SwitchPoint:
		return fmt.Errorf("caer: TransientSkip %d leaves no settled shutter periods before SwitchPoint %d", c.TransientSkip, c.SwitchPoint)
	case c.SwitchPoint+c.TransientSkip >= c.EndPoint:
		return fmt.Errorf("caer: TransientSkip %d leaves no settled burst periods before EndPoint %d", c.TransientSkip, c.EndPoint)
	case c.UsageThresh < 0:
		return fmt.Errorf("caer: UsageThresh %v must be non-negative", c.UsageThresh)
	case c.ResponseLength <= 0:
		return fmt.Errorf("caer: ResponseLength %d must be positive", c.ResponseLength)
	case c.AdaptiveResponse && c.MaxResponseLength < c.ResponseLength:
		return fmt.Errorf("caer: MaxResponseLength %d below ResponseLength %d", c.MaxResponseLength, c.ResponseLength)
	case c.RandomP < 0 || c.RandomP > 1:
		return fmt.Errorf("caer: RandomP %v out of [0,1]", c.RandomP)
	case c.WatchdogPeriods < 0:
		return fmt.Errorf("caer: WatchdogPeriods %d must be non-negative (0 disables)", c.WatchdogPeriods)
	case c.EventLogCap < 0:
		return fmt.Errorf("caer: EventLogCap %d must be non-negative (0 = default)", c.EventLogCap)
	}
	switch c.Sampling {
	case SamplingPolling:
		// The sampling knobs are inert under polling; leave them
		// unvalidated so legacy literal configs stay valid.
	case SamplingAdaptive, SamplingInterrupt:
		switch {
		case c.MaxProbeInterval < 1:
			return fmt.Errorf("caer: MaxProbeInterval %d must be >= 1 under %s sampling", c.MaxProbeInterval, c.Sampling)
		case c.Sampling == SamplingAdaptive && c.SampleGrowth < 2:
			return fmt.Errorf("caer: SampleGrowth %d must be >= 2 under adaptive sampling", c.SampleGrowth)
		case c.QuietProbes < 1:
			return fmt.Errorf("caer: QuietProbes %d must be >= 1 under %s sampling", c.QuietProbes, c.Sampling)
		case c.Sampling == SamplingInterrupt && c.TriggerWindow < 1:
			return fmt.Errorf("caer: TriggerWindow %d must be >= 1 under interrupt sampling", c.TriggerWindow)
		case c.TriggerBound < 0:
			return fmt.Errorf("caer: TriggerBound %v must be non-negative (0 = derived)", c.TriggerBound)
		case c.WatchdogPeriods > 0 && c.MaxProbeInterval >= c.WatchdogPeriods:
			return fmt.Errorf("caer: MaxProbeInterval %d must stay below WatchdogPeriods %d (the keepalive must outpace the watchdog)", c.MaxProbeInterval, c.WatchdogPeriods)
		}
	default:
		return fmt.Errorf("caer: unknown sampling mode %d", int(c.Sampling))
	}
	return nil
}
