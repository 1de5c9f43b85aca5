// Package slo evaluates declarative service-level objectives against a
// telemetry.Series, period by period, with multi-window burn-rate
// alerting. This is the online half of the loop ROADMAP's fleet follow-on
// asks for: the placer and the operator both consume alert state that is
// derived purely from exported metrics, never from reaching into engine
// internals.
//
// The alerting discipline is the SRE multi-window construction: an
// objective defines an error budget (for a latency objective, the share of
// requests allowed over the bound — 1% for a p99 target); the burn rate is
// the observed error share divided by that budget. An alert needs the burn
// to exceed the threshold in BOTH a slow window (evidence the problem is
// sustained) and a fast window (evidence it is still happening), which
// keeps detection latency low without paging on a long-resolved spike. On
// top of the window predicate sits a pending→firing→resolved state machine
// so one sustained violation raises exactly one alert episode.
//
// Evaluate is a per-period hot path: allocation-free after NewEngine (the
// caer-vet hotpath analyzer enforces this). Everything the engine decides
// is exported right back into the registry as caer_slo_* families and
// recorded as alert spans, so the doctor can reconstruct every episode
// offline from the same bytes /metrics serves.
package slo

import (
	"fmt"

	"caer/internal/telemetry"
)

// ObjectiveKind selects how an objective turns a series window into an
// error ratio.
//
//caer:enum
type ObjectiveKind int

const (
	// KindQuantile bounds a latency histogram quantile: "p99 < Bound". The
	// error budget is 1-Quantile (the share of observations allowed over
	// the bound); the observed error share is Series.OverShare.
	KindQuantile ObjectiveKind = iota
	// KindBudget bounds a counter's per-period rate: "rate < Budget"
	// (degraded ticks per period, stale comm reads per period). The burn
	// rate is the windowed rate over the budget.
	KindBudget
)

// String names the kind.
func (k ObjectiveKind) String() string {
	switch k {
	case KindQuantile:
		return "quantile"
	case KindBudget:
		return "budget"
	default:
		return fmt.Sprintf("ObjectiveKind(%d)", int(k))
	}
}

// AlertState is one objective's position in the alert state machine.
//
//caer:enum
type AlertState int

const (
	// StateInactive: burn below threshold in at least one window.
	StateInactive AlertState = iota
	// StatePending: both windows burning, waiting out PendingPeriods to
	// reject blips before paging.
	StatePending
	// StateFiring: a confirmed, ongoing violation episode.
	StateFiring
	// StateResolved: the episode just ended (burn dropped while firing);
	// one period later the machine returns to inactive.
	StateResolved
)

// String names the state.
func (s AlertState) String() string {
	switch s {
	case StateInactive:
		return "inactive"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	case StateResolved:
		return "resolved"
	default:
		return fmt.Sprintf("AlertState(%d)", int(s))
	}
}

// Objective is one declarative SLO.
type Objective struct {
	// Name identifies the objective in caer_slo_* labels, alert spans, and
	// doctor output. Must be unique within an engine and non-empty.
	Name string
	// Metric is the telemetry family the objective watches; LabelKV the
	// exact label pairs of the series (alternating key, value).
	Metric  string
	LabelKV []string

	Kind ObjectiveKind
	// Quantile and Bound define a KindQuantile objective: Quantile's
	// error budget (1-Quantile) may be spent on observations >= Bound.
	Quantile float64
	Bound    float64
	// Budget is a KindBudget objective's allowed per-period event rate.
	Budget float64

	// Window is the slow evaluation window in periods. FastWindow defaults
	// to Window/12 (min 1), the classic 1h/5m ratio.
	Window     int
	FastWindow int
	// Burn is the alerting burn-rate threshold (default 2): how many times
	// faster than budget the error may accrue before alerting.
	Burn float64
	// PendingPeriods is how many consecutive burning periods are required
	// before pending escalates to firing (default 0: fire immediately once
	// both windows burn).
	PendingPeriods int
}

// withDefaults returns o with the documented defaults applied, validating
// the rest.
func (o Objective) withDefaults() Objective {
	if o.Name == "" || o.Metric == "" {
		panic("slo: objective needs a name and a metric")
	}
	if o.Window <= 0 {
		panic(fmt.Sprintf("slo: objective %s needs a positive window", o.Name))
	}
	if o.FastWindow <= 0 {
		o.FastWindow = o.Window / 12
		if o.FastWindow < 1 {
			o.FastWindow = 1
		}
	}
	if o.FastWindow > o.Window {
		panic(fmt.Sprintf("slo: objective %s fast window %d exceeds slow window %d", o.Name, o.FastWindow, o.Window))
	}
	if o.Burn == 0 {
		o.Burn = 2
	}
	if o.Burn < 0 || o.PendingPeriods < 0 {
		panic(fmt.Sprintf("slo: objective %s has negative burn or pending", o.Name))
	}
	switch o.Kind {
	case KindQuantile:
		if o.Quantile <= 0 || o.Quantile >= 1 {
			panic(fmt.Sprintf("slo: objective %s quantile %v outside (0,1)", o.Name, o.Quantile))
		}
	case KindBudget:
		if o.Budget <= 0 {
			panic(fmt.Sprintf("slo: objective %s needs a positive budget", o.Name))
		}
	default:
		panic(fmt.Sprintf("slo: unknown objective kind %d", int(o.Kind)))
	}
	return o
}

// budget returns the objective's error budget: the denominator of the burn
// rate.
func (o *Objective) budget() float64 {
	if o.Kind == KindQuantile {
		return 1 - o.Quantile
	}
	return o.Budget
}

// alert is one objective's runtime state.
type alert struct {
	obj   Objective
	track telemetry.TrackRef

	state   AlertState
	pending int // consecutive burning periods while pending
	// episode bookkeeping for the alert span: first pending period and
	// peak slow burn since the episode opened.
	episodeStart uint64
	peakBurn     float64

	// exported handles (nil when the engine runs without a registry).
	stateG    *telemetry.Gauge
	burnFastG *telemetry.Gauge
	burnSlowG *telemetry.Gauge
	firedC    *telemetry.Counter
}

// Engine evaluates a set of objectives against one Series.
type Engine struct {
	series *telemetry.Series
	alerts []alert
	spans  *telemetry.SpanRecorder
	track  int32
	evals  *telemetry.Counter
	period uint64 // periods evaluated so far (mirrors series sample index)
}

// Config wires an Engine.
type Config struct {
	// Series is the store the objectives read. Required.
	Series *telemetry.Series
	// Objectives to evaluate, in order. Required, non-empty, unique names.
	Objectives []Objective
	// Registry receives the caer_slo_* export families. Optional: nil runs
	// the engine silent (the Replay path).
	Registry *telemetry.Registry
	// Spans receives one alert span per episode on Track. Optional.
	Spans *telemetry.SpanRecorder
	Track int32
}

// NewEngine validates objectives, resolves their series tracks, and
// registers the export families. Setup path: allocates. Objectives whose
// metric series does not exist yet panic — declare objectives after the
// components that register their metrics, like every other handle.
func NewEngine(cfg Config) *Engine {
	if cfg.Series == nil {
		panic("slo: engine needs a series")
	}
	if len(cfg.Objectives) == 0 {
		panic("slo: engine needs at least one objective")
	}
	e := &Engine{series: cfg.Series, spans: cfg.Spans, track: cfg.Track}
	seen := make(map[string]bool, len(cfg.Objectives))
	for _, raw := range cfg.Objectives {
		o := raw.withDefaults()
		if seen[o.Name] {
			panic(fmt.Sprintf("slo: duplicate objective %s", o.Name))
		}
		seen[o.Name] = true
		ref, ok := cfg.Series.Lookup(o.Metric, o.LabelKV...)
		if !ok {
			panic(fmt.Sprintf("slo: objective %s watches unregistered series %s%v", o.Name, o.Metric, o.LabelKV))
		}
		if k := cfg.Series.Kind(ref); (o.Kind == KindQuantile) != (k == telemetry.KindHistogram) {
			panic(fmt.Sprintf("slo: objective %s kind %v cannot watch a %v series", o.Name, o.Kind, k))
		}
		a := alert{obj: o, track: ref}
		if cfg.Registry != nil {
			a.stateG = cfg.Registry.Gauge("caer_slo_state",
				"alert state machine position (0 inactive, 1 pending, 2 firing, 3 resolved)", "slo", o.Name)
			a.burnFastG = cfg.Registry.Gauge("caer_slo_burn_fast",
				"fast-window burn rate (error share over budget)", "slo", o.Name)
			a.burnSlowG = cfg.Registry.Gauge("caer_slo_burn_slow",
				"slow-window burn rate (error share over budget)", "slo", o.Name)
			a.firedC = cfg.Registry.Counter("caer_slo_alerts_total",
				"alert episodes that reached firing", "slo", o.Name)
		}
		e.alerts = append(e.alerts, a)
	}
	if cfg.Registry != nil {
		e.evals = cfg.Registry.Counter("caer_slo_evals_total", "per-period SLO evaluation passes")
	}
	return e
}

// burnAt computes one objective's burn rate over `window` periods ending
// at sample index end (exclusive). Alloc-free.
func burnAt(s *telemetry.Series, a *alert, end, window int) float64 {
	var errRate float64
	if a.obj.Kind == KindQuantile {
		errRate = s.OverShareAt(a.track, end, window, a.obj.Bound)
	} else {
		errRate = s.RateAt(a.track, end, window)
	}
	return errRate / a.obj.budget()
}

// Evaluate runs one period's pass: compute both windows' burn for every
// objective, advance its state machine, export the results. Call once per
// Series.Sample, after it. Hot path: allocation-free.
func (e *Engine) Evaluate() {
	e.period++
	end := e.series.Samples()
	for i := range e.alerts {
		a := &e.alerts[i]
		fast := burnAt(e.series, a, end, a.obj.FastWindow)
		slow := burnAt(e.series, a, end, a.obj.Window)
		e.step(a, fast, slow, uint64(end))
		if a.stateG != nil {
			a.stateG.Set(float64(a.state))
			a.burnFastG.Set(fast)
			a.burnSlowG.Set(slow)
		}
	}
	if e.evals != nil {
		e.evals.Inc()
	}
}

// step advances one alert's state machine given this period's burns.
func (e *Engine) step(a *alert, fast, slow float64, period uint64) {
	breach := fast >= a.obj.Burn && slow >= a.obj.Burn
	if slow > a.peakBurn {
		a.peakBurn = slow
	}
	switch a.state {
	case StateInactive:
		if breach {
			a.state = StatePending
			a.pending = 1
			a.episodeStart = period - 1
			a.peakBurn = slow
			if a.pending > a.obj.PendingPeriods {
				e.fire(a)
			}
		}
	case StatePending:
		if !breach {
			a.state = StateInactive
			a.pending = 0
			break
		}
		a.pending++
		if a.pending > a.obj.PendingPeriods {
			e.fire(a)
		}
	case StateFiring:
		if !breach {
			a.state = StateResolved
			if e.spans != nil {
				// periods covered: episodeStart .. period-1 (the last
				// burning period).
				e.spans.Record(e.track, telemetry.SpanAlert, a.episodeStart,
					uint32(period-1-a.episodeStart), a.peakBurn)
			}
		}
	case StateResolved:
		a.pending = 0
		if breach {
			// Relapse within one period: a fresh episode.
			a.state = StatePending
			a.pending = 1
			a.episodeStart = period - 1
			a.peakBurn = slow
			if a.pending > a.obj.PendingPeriods {
				e.fire(a)
			}
		} else {
			a.state = StateInactive
		}
	default:
		panic(fmt.Sprintf("slo: unknown alert state %d", int(a.state)))
	}
}

// fire transitions pending → firing.
func (e *Engine) fire(a *alert) {
	a.state = StateFiring
	if a.firedC != nil {
		a.firedC.Inc()
	}
}

// State returns an objective's current alert state (by declaration index).
func (e *Engine) State(i int) AlertState { return e.alerts[i].state }

// StateOf returns the named objective's current state.
func (e *Engine) StateOf(name string) (AlertState, bool) {
	for i := range e.alerts {
		if e.alerts[i].obj.Name == name {
			return e.alerts[i].state, true
		}
	}
	return StateInactive, false
}

// Objectives returns the engine's objectives with defaults applied.
func (e *Engine) Objectives() []Objective {
	out := make([]Objective, len(e.alerts))
	for i := range e.alerts {
		out[i] = e.alerts[i].obj
	}
	return out
}

// Firing returns how many objectives are currently firing.
func (e *Engine) Firing() int {
	n := 0
	for i := range e.alerts {
		if e.alerts[i].state == StateFiring {
			n++
		}
	}
	return n
}
