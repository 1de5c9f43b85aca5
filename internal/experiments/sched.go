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

// SchedPolicyResult is one placement policy's outcome in the scheduler
// regime suite: the same latency service and job mix on the same
// multi-LLC-domain machine, differing only in how the admission queue's
// jobs are placed.
type SchedPolicyResult struct {
	// Name labels the configuration (policy, plus "+migration" when
	// bounded-rate migration is enabled).
	Name   string
	Policy sched.Policy

	// Periods is the latency app's completion time; QoSDegradation is its
	// slowdown versus the jobs-free baseline on the identical machine
	// (1.0 = no interference from the batch side at all).
	Periods        uint64
	QoSDegradation float64

	// JobsSubmitted / JobsCompleted pin the admitted batch throughput the
	// comparison holds equal: every policy must drain the same job set.
	JobsSubmitted, JobsCompleted int
	// BatchInstructions and BatchDuty summarise the batch side's progress.
	BatchInstructions uint64
	BatchDuty         float64

	// Queue behaviour: the longest any job waited (bounded by AgingBound
	// while cores are free), and how many admissions were forced by aging.
	MaxWait        int
	AgedAdmissions int
	// Migrations counts cross-domain job moves (0 unless enabled).
	Migrations int
	// DomainAdmissions counts admissions per LLC domain — the placement
	// signature (contention-aware steers aggressors off the latency
	// domain; round-robin splits them blindly).
	DomainAdmissions []int
}

// SchedRegime is the scheduler regime suite's result: one latency-sensitive
// service pinned to domain 0 of a 2-LLC-domain machine, a fixed mix of
// batch jobs flowing through the admission queue, compared across placement
// policies at equal admitted throughput.
type SchedRegime struct {
	Latency    string
	JobMix     []string
	Domains    int
	Cores      int
	Seed       int64
	AgingBound int

	// BaselinePeriods is the latency app's completion time with no jobs
	// submitted (co-location disallowed — the paper's conservative
	// baseline, scheduled-mode shape).
	BaselinePeriods uint64
	Policies        []SchedPolicyResult
}

// schedRegimeConfig is one suite row: a policy plus whether bounded-rate
// migration is on.
type schedRegimeConfig struct {
	name            string
	policy          sched.Policy
	migrationPeriod int
}

// SchedRegimeSuiteWorkers runs the scheduler regime comparison (DESIGN.md
// §9): mcf as the latency-sensitive service on domain 0 of a 2-domain,
// 8-core machine; a mix of lbm aggressors and povray quiet jobs submitted
// to the admission queue; identical seeds and job sets across policies.
// quick shrinks instruction counts 4x for a fast smoke run; workers sizes
// the machine's domain-stepper pool and, like every regime, is not recorded
// in the artifact.
func SchedRegimeSuiteWorkers(seed int64, quick bool, workers int) SchedRegime {
	scale := uint64(1)
	if quick {
		scale = 4
	}
	mcf := mustProfile("mcf")
	lbm := mustProfile("lbm")
	povray := mustProfile("povray")
	mcf.Exec.Instructions /= scale
	lbm.Exec.Instructions = 500_000 / scale
	povray.Exec.Instructions = 500_000 / scale

	jobs := []spec.Profile{lbm, lbm, povray, lbm, povray, lbm}
	const agingBound = 1200

	out := SchedRegime{
		Latency:    spec.ShortName(mcf.Name),
		Domains:    2,
		Cores:      8,
		Seed:       seed,
		AgingBound: agingBound,
	}
	for _, j := range jobs {
		out.JobMix = append(out.JobMix, spec.ShortName(j.Name))
	}

	scenario := func(cfg schedRegimeConfig, jobSet []spec.Profile) runner.Scenario {
		return runner.Scenario{
			Latency:   mcf,
			Mode:      runner.ModeScheduled,
			Heuristic: caer.HeuristicRule,
			Seed:      seed,
			Domains:   2,
			Cores:     8,
			Jobs:      jobSet,
			// The admission threshold is set above any reachable score so
			// queueing in this suite is purely capacity-driven: every
			// policy admits at the same rate and the comparison isolates
			// *where* jobs land, not *when*. Threshold-driven queueing is
			// exercised by the sched package's own tests.
			Sched: sched.Config{
				Policy:          cfg.policy,
				AdmitThreshold:  100,
				AgingBound:      agingBound,
				MigrationPeriod: cfg.migrationPeriod,
			},
			MaxPeriods: 200_000,
			Workers:    workers,
		}
	}

	baseline := runner.Run(scenario(schedRegimeConfig{policy: sched.PolicyContentionAware}, nil))
	out.BaselinePeriods = baseline.Periods

	configs := []schedRegimeConfig{
		{name: "round-robin", policy: sched.PolicyRoundRobin},
		{name: "contention-aware", policy: sched.PolicyContentionAware},
		{name: "packed", policy: sched.PolicyPacked},
		{name: "packed+migration", policy: sched.PolicyPacked, migrationPeriod: 40},
	}
	for _, cfg := range configs {
		res := runner.Run(scenario(cfg, jobs))
		pr := SchedPolicyResult{
			Name:              cfg.name,
			Policy:            cfg.policy,
			Periods:           res.Periods,
			QoSDegradation:    float64(res.Periods) / float64(out.BaselinePeriods),
			JobsSubmitted:     len(jobs),
			JobsCompleted:     res.JobsCompleted,
			BatchInstructions: res.BatchInstructions,
			BatchDuty:         res.BatchDuty,
			MaxWait:           res.MaxWait,
			Migrations:        res.Migrations,
			DomainAdmissions:  make([]int, 2),
		}
		for _, d := range res.SchedDecisions {
			if d.Kind != sched.DecisionAdmit {
				continue
			}
			pr.DomainAdmissions[d.To]++
			if d.Aged {
				pr.AgedAdmissions++
			}
		}
		out.Policies = append(out.Policies, pr)
	}
	return out
}

func mustProfile(name string) spec.Profile {
	p, ok := spec.ByName(name)
	if !ok {
		panic("experiments: unknown profile " + name)
	}
	return p
}

// Check enforces the scheduler gate: every policy drains the whole job
// set, no job waits past the aging bound, and contention-aware placement
// never degrades the latency app more than round-robin. (Short quick-mode
// runs can tie; the strict win at seed 42 is pinned by the suite test.)
func (r SchedRegime) Check() error {
	var rr, ca *SchedPolicyResult
	for i := range r.Policies {
		p := &r.Policies[i]
		if p.JobsCompleted != p.JobsSubmitted {
			return fmt.Errorf("%s completed %d of %d jobs", p.Name, p.JobsCompleted, p.JobsSubmitted)
		}
		if p.MaxWait > r.AgingBound {
			return fmt.Errorf("%s: a job waited %d periods past aging bound %d", p.Name, p.MaxWait, r.AgingBound)
		}
		switch p.Name {
		case "round-robin":
			rr = p
		case "contention-aware":
			ca = p
		}
	}
	if rr == nil || ca == nil {
		return fmt.Errorf("sched regime missing round-robin or contention-aware row")
	}
	if ca.QoSDegradation > rr.QoSDegradation {
		return fmt.Errorf("contention-aware QoS degradation %.4f exceeds round-robin %.4f",
			ca.QoSDegradation, rr.QoSDegradation)
	}
	return nil
}

// Table returns the regime comparison as a table.
func (r SchedRegime) Table() *report.Table {
	t := report.NewTable("policy", "qos_degradation", "jobs_completed",
		"batch_duty", "admissions_d0/d1", "max_wait", "aged", "migrations")
	for _, p := range r.Policies {
		t.AddRow(p.Name,
			fmt.Sprintf("%.4f", p.QoSDegradation),
			fmt.Sprintf("%d/%d", p.JobsCompleted, p.JobsSubmitted),
			report.Percent(p.BatchDuty),
			fmt.Sprintf("%d/%d", p.DomainAdmissions[0], p.DomainAdmissions[1]),
			fmt.Sprintf("%d", p.MaxWait),
			fmt.Sprintf("%d", p.AgedAdmissions),
			fmt.Sprintf("%d", p.Migrations))
	}
	return t
}

// Render writes the regime summary.
func (r SchedRegime) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Scheduler regimes (DESIGN.md §9): %s service on domain 0 of %d domains x %d cores, jobs %v\nbaseline (no jobs): %d periods; aging bound %d\n",
		r.Latency, r.Domains, r.Cores/r.Domains, r.JobMix, r.BaselinePeriods, r.AgingBound); err != nil {
		return err
	}
	return r.Table().Render(w)
}

// WriteJSON emits the regime suite as a machine-readable artifact (the
// BENCH_sched.json format caer-bench writes for external tooling).
func (r SchedRegime) WriteJSON(w io.Writer) error {
	return writeJSON(w, r)
}
