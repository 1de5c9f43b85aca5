package experiments

import (
	"fmt"
	"io"

	"caer/internal/caer"
	"caer/internal/report"
	"caer/internal/runner"
	"caer/internal/sched"
	"caer/internal/spec"
)

// PartitionConfigResult is one response family's outcome in the partition
// regime suite: the same latency service and job mix on the same machine,
// differing only in how contention is answered — throttling the batch set
// (the paper's lever) or resizing LLC way-partitions (LFOC-style), or
// both.
type PartitionConfigResult struct {
	// Name labels the configuration.
	Name      string
	Heuristic string
	Response  string

	// Periods is the latency app's completion time; QoSDegradation is its
	// slowdown versus the jobs-free baseline on the identical machine.
	Periods        uint64
	QoSDegradation float64

	// JobsSubmitted / JobsCompleted pin the admitted batch throughput the
	// comparison holds equal: every response must drain the same job set.
	JobsSubmitted, JobsCompleted int
	// BatchMakespan is the period the last batch job completed in — the
	// batch-side cost of the response (throttling stretches it; pure
	// partitioning never pauses anyone).
	BatchMakespan uint64
	// BatchInstructions totals the batch side's retired work.
	BatchInstructions uint64
	// BatchDuty is the engine-directive run fraction. Under the partition
	// response the directive confines instead of pausing, so duty there
	// reads as the fraction of job-periods spent unconfined.
	BatchDuty float64
	// CPositive counts contention verdicts across the run's engines.
	CPositive uint64
}

// PartitionRegime is the partition regime suite's result: one
// latency-sensitive service plus a stream of LLC aggressors on a single
// shared-LLC domain, compared across the response family at equal admitted
// throughput (DESIGN.md §16).
type PartitionRegime struct {
	Latency             string
	JobMix              []string
	Domains             int
	Cores               int
	Seed                int64
	ProtectedWaysPerApp int
	ConfinedWays        int

	// BaselinePeriods is the latency app's completion time with no jobs
	// submitted (and no partitions applied).
	BaselinePeriods uint64
	Configs         []PartitionConfigResult
}

// partitionConfig is one suite row.
type partitionConfig struct {
	name      string
	heuristic caer.HeuristicKind
	response  sched.ResponseKind
}

// PartitionSuiteWorkers runs the response-family head-to-head (DESIGN.md §16):
// omnetpp — whose scattered heap references make it maximally fragile to
// LLC eviction — as the latency-sensitive service sharing one 3-core LLC
// domain with capacity-thief jobs (soplex and astar, large uniform
// working sets with little streaming) flowing through the admission
// queue; identical seeds and job sets across configurations, so the only
// variable is the response. This is the regime cache partitioning is for:
// the damage is capacity theft, not bandwidth, so confining the thieves
// protects the service without idling anyone. (A pure-bandwidth adversary
// like lbm is the converse regime — only throttling relieves a saturated
// memory channel — which is why the hybrid row exists.) quick shrinks
// instruction counts 4x; workers sizes the machine's domain-stepper pool
// and is not recorded in the artifact.
func PartitionSuiteWorkers(seed int64, quick bool, workers int) PartitionRegime {
	scale := uint64(1)
	if quick {
		scale = 4
	}
	omnetpp := mustProfile("omnetpp")
	soplex := mustProfile("soplex")
	astar := mustProfile("astar")
	omnetpp.Exec.Instructions /= scale
	soplex.Exec.Instructions = 500_000 / scale
	astar.Exec.Instructions = 500_000 / scale

	jobs := []spec.Profile{soplex, astar, soplex}
	cluster := sched.ClusterConfig{ProtectedWaysPerApp: 8, ConfinedWays: 4}

	out := PartitionRegime{
		Latency:             spec.ShortName(omnetpp.Name),
		Domains:             1,
		Cores:               3,
		Seed:                seed,
		ProtectedWaysPerApp: cluster.ProtectedWaysPerApp,
		ConfinedWays:        cluster.ConfinedWays,
	}
	for _, j := range jobs {
		out.JobMix = append(out.JobMix, spec.ShortName(j.Name))
	}

	scenario := func(cfg partitionConfig, jobSet []spec.Profile) runner.Scenario {
		return runner.Scenario{
			Latency:   omnetpp,
			Mode:      runner.ModeScheduled,
			Heuristic: cfg.heuristic,
			Seed:      seed,
			Domains:   1,
			Cores:     3,
			Jobs:      jobSet,
			// Admission above any reachable score: queueing is purely
			// capacity-driven, so every response admits identically and the
			// comparison isolates the reaction, not the placement.
			Sched: sched.Config{
				AdmitThreshold: 100,
				AgingBound:     1200,
				Response:       cfg.response,
				Cluster:        cluster,
			},
			MaxPeriods: 200_000,
			Workers:    workers,
		}
	}

	baseline := runner.Run(scenario(partitionConfig{heuristic: caer.HeuristicRule}, nil))
	out.BaselinePeriods = baseline.Periods

	configs := []partitionConfig{
		{name: "red-light-green-light", heuristic: caer.HeuristicShutter, response: sched.ResponseThrottle},
		{name: "soft-lock", heuristic: caer.HeuristicRule, response: sched.ResponseThrottle},
		{name: "partition", heuristic: caer.HeuristicRule, response: sched.ResponsePartition},
		{name: "hybrid", heuristic: caer.HeuristicRule, response: sched.ResponseHybrid},
	}
	for _, cfg := range configs {
		res := runner.Run(scenario(cfg, jobs))
		pr := PartitionConfigResult{
			Name:              cfg.name,
			Heuristic:         cfg.heuristic.String(),
			Response:          cfg.response.String(),
			Periods:           res.Periods,
			QoSDegradation:    float64(res.Periods) / float64(out.BaselinePeriods),
			JobsSubmitted:     len(jobs),
			JobsCompleted:     res.JobsCompleted,
			BatchInstructions: res.BatchInstructions,
			BatchDuty:         res.BatchDuty,
			CPositive:         res.CPositive,
		}
		for _, br := range res.BatchResults {
			if br.DonePeriod > pr.BatchMakespan {
				pr.BatchMakespan = br.DonePeriod
			}
		}
		out.Configs = append(out.Configs, pr)
	}
	return out
}

// Config returns the named configuration's result.
func (r PartitionRegime) Config(name string) (PartitionConfigResult, bool) {
	for _, c := range r.Configs {
		if c.Name == name {
			return c, true
		}
	}
	return PartitionConfigResult{}, false
}

// Check asserts the suite's headline claim (the CI gate): partitioning
// strictly beats both pure-throttling responses on sensitive-app QoS
// degradation while sacrificing less batch throughput (earlier batch
// makespan), at equal admitted throughput (every configuration drains the
// whole job set).
func (r PartitionRegime) Check() error {
	part, ok := r.Config("partition")
	if !ok {
		return fmt.Errorf("partition regime: no partition configuration in suite")
	}
	for _, c := range r.Configs {
		if c.JobsCompleted != c.JobsSubmitted {
			return fmt.Errorf("partition regime: %s completed %d/%d jobs (throughput not equal)",
				c.Name, c.JobsCompleted, c.JobsSubmitted)
		}
	}
	for _, name := range []string{"red-light-green-light", "soft-lock"} {
		thr, ok := r.Config(name)
		if !ok {
			return fmt.Errorf("partition regime: no %s configuration in suite", name)
		}
		if part.QoSDegradation >= thr.QoSDegradation {
			return fmt.Errorf("partition regime: partition QoS degradation %.4f does not strictly beat %s at %.4f",
				part.QoSDegradation, name, thr.QoSDegradation)
		}
		if part.BatchMakespan > thr.BatchMakespan {
			return fmt.Errorf("partition regime: partition batch makespan %d exceeds %s at %d (sacrifices more batch throughput)",
				part.BatchMakespan, name, thr.BatchMakespan)
		}
	}
	return nil
}

// Table returns the regime comparison as a table.
func (r PartitionRegime) Table() *report.Table {
	t := report.NewTable("response", "heuristic", "qos_degradation",
		"jobs_completed", "batch_makespan", "batch_duty", "verdicts")
	for _, c := range r.Configs {
		t.AddRow(c.Name, c.Heuristic,
			fmt.Sprintf("%.4f", c.QoSDegradation),
			fmt.Sprintf("%d/%d", c.JobsCompleted, c.JobsSubmitted),
			fmt.Sprintf("%d", c.BatchMakespan),
			report.Percent(c.BatchDuty),
			fmt.Sprintf("%d", c.CPositive))
	}
	return t
}

// Render writes the regime summary.
func (r PartitionRegime) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Partition regimes (DESIGN.md §16): %s service sharing %d cores/1 LLC with jobs %v\nbaseline (no jobs): %d periods; protected %d ways/app, confined %d ways\n",
		r.Latency, r.Cores, r.JobMix, r.BaselinePeriods, r.ProtectedWaysPerApp, r.ConfinedWays); err != nil {
		return err
	}
	return r.Table().Render(w)
}

// WriteJSON emits the regime suite as a machine-readable artifact (the
// BENCH_partition.json format caer-bench writes for external tooling).
func (r PartitionRegime) WriteJSON(w io.Writer) error {
	return writeJSON(w, r)
}
