package fleet

import (
	"fmt"

	"caer/internal/sched"
)

// Policy selects the cross-machine placement strategy the fleet scheduler
// uses to map arriving jobs onto machines. It is the cluster-level
// analogue of sched.Policy, which then places the job onto an LLC domain
// within the chosen machine.
//
//caer:enum
type Policy int

const (
	// PolicyRoundRobin rotates dispatches across machines with spare
	// capacity, blind to contention — the topology-only baseline.
	PolicyRoundRobin Policy = iota
	// PolicyLeastPressure greedily sends each job to the machine where
	// its predicted interference with the resident latency services is
	// lowest, using every machine's classifier summary (sensitivity, live
	// LLC pressure, resident batch aggressiveness).
	PolicyLeastPressure
	// PolicyPacked fills the lowest-numbered machine first — the
	// consolidation baseline.
	PolicyPacked
	// PolicyTelemetry places by each machine's exported metrics — the
	// scraped caer_core_pressure gauges, per-service latency histograms,
	// and SLO burn state — instead of the synchronous classifier summary.
	// A machine whose scrape is stale past the staleness horizon is scored
	// with the least-pressure fallback, so a dead telemetry plane degrades
	// the policy to PolicyLeastPressure rather than wedging placement.
	PolicyTelemetry
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyLeastPressure:
		return "least-pressure"
	case PolicyPacked:
		return "packed"
	case PolicyTelemetry:
		return "telemetry"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// NodeView is one machine's state as the fleet placer sees it: the
// machine-wide classifier summary plus the candidate job's aggressiveness
// as that machine's classifier knows it (machines that have hosted the
// program before predict it better). The cluster refills a preallocated
// []NodeView every dispatch decision, so placers must not retain it.
type NodeView struct {
	sched.Summary
	// Aggr is the candidate job's classifier aggressiveness on this
	// machine (the prior 0.5 when the machine has never run the program).
	Aggr float64
	// Tel is the machine's scraped-telemetry view (zero under policies
	// that never scrape; Fresh=false then).
	Tel TelView
}

// eligible reports whether the machine can absorb another dispatch: more
// free batch cores than jobs already waiting in its admission queue.
// Dispatch past that point only builds machine-local backlog the fleet
// queue models better (and migration would immediately want to undo).
func (v *NodeView) eligible() bool { return v.FreeCores > v.Queued }

// interferenceScore mirrors sched's greedy scorer one level up: predicted
// marginal interference of putting the candidate on the machine. Latency
// sensitivity and live pressure both make a machine expensive, scaled by
// the candidate's aggressiveness; resident batch load breaks ties away
// from crowded machines.
func interferenceScore(v *NodeView) float64 {
	return (v.Sensitivity+v.Pressure)*(0.4+v.Aggr) + 0.3*v.BatchLoad
}

// Placer is the pluggable cross-machine placement policy: given the
// per-machine views, Place picks a target machine, or -1 when no machine
// is eligible (the job stays in the fleet queue). Place must be pure and
// allocation-free — it runs whenever the fleet queue is non-empty. The
// cluster calls Commit(n) only when a job is actually dispatched to
// machine n, which is when stateful policies may advance.
type Placer interface {
	Name() string
	Place(views []NodeView) int
	Commit(n int)
}

// NewPlacer builds the policy's placer.
func (p Policy) NewPlacer() Placer {
	switch p {
	case PolicyRoundRobin:
		return &roundRobinPlacer{}
	case PolicyLeastPressure:
		return &leastPressurePlacer{}
	case PolicyPacked:
		return &packedPlacer{}
	case PolicyTelemetry:
		return &telemetryPlacer{}
	default:
		panic(fmt.Sprintf("fleet: unknown policy %d", int(p)))
	}
}

// roundRobinPlacer rotates across eligible machines.
type roundRobinPlacer struct {
	next int
}

func (r *roundRobinPlacer) Name() string { return PolicyRoundRobin.String() }

func (r *roundRobinPlacer) Place(views []NodeView) int {
	n := len(views)
	for i := 0; i < n; i++ {
		k := (r.next + i) % n
		if views[k].eligible() {
			return k
		}
	}
	return -1
}

func (r *roundRobinPlacer) Commit(n int) { r.next = n + 1 }

// leastPressurePlacer picks the eligible machine with the lowest predicted
// interference score; ties break toward the lower machine index for
// determinism.
type leastPressurePlacer struct{}

func (leastPressurePlacer) Name() string { return PolicyLeastPressure.String() }

func (leastPressurePlacer) Commit(n int) {}

func (leastPressurePlacer) Place(views []NodeView) int {
	best := -1
	var bestScore float64
	for k := range views {
		if !views[k].eligible() {
			continue
		}
		s := interferenceScore(&views[k])
		if best == -1 || s < bestScore {
			best = k
			bestScore = s
		}
	}
	return best
}

// burnPenalty is the telemetry score surcharge per firing SLO alert: a
// machine actively burning error budget repels new batch work outright —
// one firing alert outweighs any pressure difference in [0, 2).
const burnPenalty = 2.0

// telemetryScore mirrors interferenceScore but sources every machine-side
// term from the scraped metrics instead of the synchronous summary, and
// adds what only telemetry can see: the observed request-latency tail and
// the SLO burn state.
func telemetryScore(v *NodeView) float64 {
	return (v.Tel.Sensitivity+v.Tel.Pressure)*(0.4+v.Aggr) +
		0.3*v.Tel.BatchLoad +
		v.Tel.LatencyP99/latencyHistMax +
		burnPenalty*float64(v.Tel.Burning)
}

// telemetryPlacer scores each eligible machine by its scraped metrics
// when fresh, falling back per machine to the synchronous least-pressure
// score when the scrape is stale past the horizon. With every machine
// stale (total scrape outage) the policy is exactly PolicyLeastPressure —
// same scores, same tie-breaks — which the staleness-fallback test pins.
type telemetryPlacer struct{}

func (telemetryPlacer) Name() string { return PolicyTelemetry.String() }

func (telemetryPlacer) Commit(n int) {}

func (telemetryPlacer) Place(views []NodeView) int {
	best := -1
	var bestScore float64
	for k := range views {
		if !views[k].eligible() {
			continue
		}
		var s float64
		if views[k].Tel.Fresh {
			s = telemetryScore(&views[k])
		} else {
			s = interferenceScore(&views[k])
		}
		if best == -1 || s < bestScore {
			best = k
			bestScore = s
		}
	}
	return best
}

// packedPlacer fills machine 0 first, then 1, ...
type packedPlacer struct{}

func (packedPlacer) Name() string { return PolicyPacked.String() }

func (packedPlacer) Commit(n int) {}

func (packedPlacer) Place(views []NodeView) int {
	for k := range views {
		if views[k].eligible() {
			return k
		}
	}
	return -1
}
