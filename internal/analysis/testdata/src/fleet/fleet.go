// Package fleet is a testdata stand-in for the deterministic cluster
// scheduler: Policy picks the placement strategy, JobState is a job's
// lifecycle phase, and Curve shapes the arrival schedule. Its hot root
// Cluster.Tick must stay allocation-free.
//
//caer:deterministic
package fleet

import (
	"fmt"
	"strings"
	"time"
)

//caer:enum
type Policy int

const (
	PolicyRoundRobin Policy = iota
	PolicyLeastPressure
	PolicyPacked
)

//caer:enum
type JobState int

const (
	JobQueued JobState = iota
	JobDispatched
	JobFinished
)

//caer:enum
type Curve int

const (
	CurveConstant Curve = iota
	CurveDiurnal
	CurveBurst
)

type job struct {
	name  string
	state JobState
}

type Cluster struct {
	jobs    []*job
	byName  map[string]int
	pending []int
	tick    int
}

//caer:hot
func (c *Cluster) Tick() {
	now := time.Now() // want hotpath "call to time.Now in hot path" determinism "wall-clock read time.Now"
	_ = now
	c.pending = append(c.pending, c.tick) // want hotpath "append() allocates in hot path"
	c.dispatch()
	c.tick++
}

// dispatch is hot through Tick: the bounded queue scan.
func (c *Cluster) dispatch() {
	c.byName["head"] = c.tick // want hotpath "map access in hot path"
	c.arrive(1)
}

// arrive is a reviewed cold barrier: hot-path propagation stops here, so
// its allocations are clean.
//
//caer:cold materializing job records allocates by documented design
func (c *Cluster) arrive(n int) {
	for i := 0; i < n; i++ {
		c.jobs = append(c.jobs, &job{name: fmt.Sprintf("job-%d", len(c.jobs))})
	}
}

// leastPressurePlacer's Place is a hot root, called per dispatch attempt.
type leastPressurePlacer struct{}

//caer:hot
func (leastPressurePlacer) Place(loads []float64) int {
	scores := []float64{0, 0} // want hotpath "slice literal allocates in hot path"
	_ = scores
	best := -1
	for k, l := range loads {
		if best < 0 || l < loads[best] {
			best = k
		}
	}
	return best
}

// describePolicy drops PolicyPacked: fleet placement switches must stay in
// sync with the Policy enum.
func describePolicy(p Policy) string {
	switch p { // want enumswitch "switch over Policy is not exhaustive: missing PolicyPacked"
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyLeastPressure:
		return "least-pressure"
	default:
		return "?"
	}
}

// describeCurve drops CurveBurst.
func describeCurve(c Curve) string {
	switch c { // want enumswitch "switch over Curve is not exhaustive: missing CurveBurst"
	case CurveConstant:
		return "constant"
	case CurveDiurnal:
		return "diurnal"
	default:
		return "?"
	}
}

// describeState is exhaustive: no finding.
func describeState(s JobState) string {
	switch s {
	case JobQueued:
		return "queued"
	case JobDispatched:
		return "dispatched"
	case JobFinished:
		return "finished"
	default:
		return "?"
	}
}

// dumpJobs feeds ordered output straight from a map range: the fleet
// package is deterministic (BENCH_fleet.json is byte-compared), so
// iteration order must never reach an ordered sink.
func (c *Cluster) dumpJobs(sb *strings.Builder) {
	for name, idx := range c.byName { // want determinism "map iteration feeds ordered output"
		fmt.Fprintf(sb, "%s:%d\n", name, idx)
	}
}

var (
	_ = (*Cluster).Tick
	_ = (*Cluster).dumpJobs
	_ = leastPressurePlacer.Place
	_ = describePolicy
	_ = describeCurve
	_ = describeState
)
