package sched

import "fmt"

// Policy selects the placement strategy the scheduler uses to map admitted
// batch jobs onto LLC domains.
//
//caer:enum
type Policy int

const (
	// PolicyRoundRobin rotates admissions across domains with free cores,
	// blind to contention — the classic topology-only baseline.
	PolicyRoundRobin Policy = iota
	// PolicyContentionAware greedily places each job on the domain where
	// its predicted interference with latency-sensitive apps is lowest,
	// using the classifier's aggressiveness/sensitivity scores.
	PolicyContentionAware
	// PolicyPacked fills the lowest-numbered domain first — the seed
	// runner's "all batches on one LLC domain" shape.
	PolicyPacked
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyContentionAware:
		return "contention-aware"
	case PolicyPacked:
		return "packed"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// View is one domain's state as the placement engine sees it when scoring
// a decision. The scheduler refills a preallocated []View every decision,
// so placers must not retain it.
type View struct {
	// FreeCores is the number of unoccupied batch cores in the domain; a
	// domain with none is ineligible.
	FreeCores int
	// Sensitivity is the summed classifier sensitivity score of the
	// domain's latency-sensitive apps — how much they stand to lose to a
	// co-located aggressor.
	Sensitivity float64
	// Pressure is the domain's latency apps' current windowed LLC-miss
	// pressure, normalized to [0, 1) per app and summed.
	Pressure float64
	// BatchLoad is the summed aggressiveness of jobs already running on
	// the domain.
	BatchLoad float64
}

// batchLoadWeight discounts already-running batch aggressiveness against
// latency sensitivity in the greedy score: protecting latency apps
// dominates, but piling every aggressor onto one domain still costs.
const batchLoadWeight = 0.3

// interferenceScore is the greedy scorer shared by the contention-aware
// placer and the migration engine: the predicted marginal interference of
// putting a job with aggressiveness aggr onto the domain. Latency
// sensitivity and live pressure both make a domain expensive, scaled up by
// how aggressive the candidate is; resident batch load breaks ties away
// from crowded domains.
func interferenceScore(v View, aggr float64) float64 {
	return (v.Sensitivity+v.Pressure)*(0.4+aggr) + batchLoadWeight*v.BatchLoad
}

// Placer is the pluggable placement policy interface: given the candidate
// job's aggressiveness score and the per-domain views, Place picks a
// target domain, or -1 when no domain has a free core. Place must be pure
// and allocation-free — it runs whenever the admission queue is non-empty,
// and the admission threshold may still veto its choice. The scheduler
// calls Commit(d) only when a job is actually admitted to d, which is when
// stateful policies may advance.
type Placer interface {
	Name() string
	Place(aggr float64, views []View) int
	Commit(d int)
}

// NewPlacer builds the policy's placer.
func (p Policy) NewPlacer() Placer {
	switch p {
	case PolicyRoundRobin:
		return &roundRobinPlacer{}
	case PolicyContentionAware:
		return &contentionPlacer{}
	case PolicyPacked:
		return &packedPlacer{}
	default:
		panic(fmt.Sprintf("sched: unknown policy %d", int(p)))
	}
}

// roundRobinPlacer rotates across eligible domains.
type roundRobinPlacer struct {
	next int
}

func (r *roundRobinPlacer) Name() string { return PolicyRoundRobin.String() }

func (r *roundRobinPlacer) Place(aggr float64, views []View) int {
	n := len(views)
	for i := 0; i < n; i++ {
		d := (r.next + i) % n
		if views[d].FreeCores > 0 {
			return d
		}
	}
	return -1
}

func (r *roundRobinPlacer) Commit(d int) { r.next = d + 1 }

// contentionPlacer picks the eligible domain with the lowest predicted
// interference score; ties break toward the lower domain index for
// determinism.
type contentionPlacer struct{}

func (contentionPlacer) Name() string { return PolicyContentionAware.String() }

func (contentionPlacer) Commit(d int) {}

func (contentionPlacer) Place(aggr float64, views []View) int {
	best := -1
	var bestScore float64
	for d := range views {
		if views[d].FreeCores == 0 {
			continue
		}
		s := interferenceScore(views[d], aggr)
		if best == -1 || s < bestScore {
			best = d
			bestScore = s
		}
	}
	return best
}

// packedPlacer fills domain 0 first, then 1, ...
type packedPlacer struct{}

func (packedPlacer) Name() string { return PolicyPacked.String() }

func (packedPlacer) Commit(d int) {}

func (packedPlacer) Place(aggr float64, views []View) int {
	for d := range views {
		if views[d].FreeCores > 0 {
			return d
		}
	}
	return -1
}
