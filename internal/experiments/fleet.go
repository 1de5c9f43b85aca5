package experiments

import (
	"fmt"
	"io"

	"caer/internal/caer"
	"caer/internal/fleet"
	"caer/internal/report"
	"caer/internal/sched"
	"caer/internal/spec"
)

// FleetPolicyResult is one cross-machine placement policy's outcome in the
// fleet regime suite: the same machines, services, and open-loop traffic
// schedule, differing only in how the fleet queue's jobs are spread across
// machines.
type FleetPolicyResult struct {
	// Name labels the configuration (policy, plus "+migration" when
	// bounded-rate cross-machine migration is enabled).
	Name   string
	Policy fleet.Policy

	// Ticks is the run length in periods; Arrivals and Completed pin the
	// admitted throughput the comparison holds equal (every policy drains
	// the identical arrival schedule).
	Ticks      int
	Arrivals   int
	Completed  int
	Throughput float64 // completed jobs per 1000 periods
	Migrations int

	// Sensitive-service QoS, fleet-wide: completed open-loop requests of
	// the latency-critical service class and their duration quantiles in
	// periods. This is the gate metric — least-pressure placement must
	// strictly beat round-robin on P99.
	Requests int
	P50, P99 float64

	// Fleet queueing (periods): how long jobs waited for a core and how
	// long arrival-to-completion took, cluster-wide.
	WaitP50, WaitP99       float64
	SojournP50, SojournP99 float64

	// MachineDispatches is the placement signature, jobs dispatched per
	// machine: least-pressure steers the aggressor-heavy mix toward the
	// insensitive machines, round-robin splits it blindly.
	MachineDispatches []int
}

// FleetRegime is the fleet regime suite's result: a heterogeneous cluster
// (the first half of the machines host a latency-critical open-loop
// service, the rest an insensitive background service) fed an identical
// aggressor-heavy open-loop traffic schedule, compared across cross-machine
// placement policies at equal admitted throughput.
type FleetRegime struct {
	Machines   int
	Sensitive  string // open-loop service class on machines [0, Machines/2)
	Background string // open-loop service class on the remaining machines
	JobMix     []string
	Curve      string
	Rate       float64 // mean arrivals per period at the curve's reference level
	Horizon    int
	Seed       int64

	Policies []FleetPolicyResult
}

// fleetRegimeConfig is one suite row: a fleet policy plus whether bounded
// cross-machine migration is on.
type fleetRegimeConfig struct {
	name          string
	policy        fleet.Policy
	migratePeriod int
}

// FleetSuiteWorkers runs the fleet regime comparison (DESIGN.md §14): four
// 2-LLC-domain machines — two hosting a sensitive mcf open-loop service,
// two an insensitive namd one — fed a diurnal, lbm-heavy job schedule, with
// cross-machine placement compared at equal admitted throughput. quick
// shrinks instruction counts 4x (and the traffic horizon to match, keeping
// offered load constant) for a fast smoke run; workers sizes every
// machine's domain-stepper pool and is not recorded in the artifact.
func FleetSuiteWorkers(seed int64, quick bool, workers int) FleetRegime {
	scale := uint64(1)
	if quick {
		scale = 4
	}
	mcf := mustProfile("mcf")
	namd := mustProfile("namd")
	lbm := mustProfile("lbm")
	povray := mustProfile("povray")
	mcf.Exec.Instructions = 1_000_000 / scale
	namd.Exec.Instructions = 1_000_000 / scale
	lbm.Exec.Instructions = 400_000 / scale
	povray.Exec.Instructions = 400_000 / scale

	mix := []spec.Profile{lbm, lbm, povray, lbm}
	// Offered load is scale-invariant: quick mode shortens every job 4x, so
	// the arrival rate rises 4x over a 4x shorter horizon — the same job
	// count arrives against the same capacity ratio.
	// The rate is set so the diurnal peak fits inside the fleet's
	// insensitive capacity (the background machines plus the sensitive
	// machines's spare LLC domains) but oversubscribes a blind 1/N split:
	// least-pressure can keep every aggressor off the service domains,
	// round-robin's rotation bunches them onto the sensitive machines at
	// peak and overflows onto the domain the service occupies.
	traffic := fleet.Traffic{
		Curve:   fleet.CurveDiurnal,
		Rate:    0.033 * float64(scale),
		Horizon: 4000 / int(scale),
		Mix:     mix,
	}

	// Heterogeneous cluster: the sensitive machines are small (4 cores, 2
	// LLC domains — the spare domain holds just two batch cores), the
	// background machines are big (8 cores, 7 batch cores each). A blind
	// 1/N split therefore overflows the sensitive machines' spare domain at
	// peak and lands aggressors next to the service, while the fleet as a
	// whole still has insensitive capacity for everything — exactly the
	// slack least-pressure exploits.
	const machines = 4
	specs := make([]fleet.MachineSpec, machines)
	for k := range specs {
		svc := fleet.Service{Profile: mcf, Core: 0, Relaunch: true}
		specs[k] = fleet.MachineSpec{Cores: 4, Domains: 2, Workers: workers, Services: []fleet.Service{svc}}
		if k >= machines/2 {
			svc.Profile = namd
			specs[k] = fleet.MachineSpec{Cores: 8, Domains: 2, Workers: workers, Services: []fleet.Service{svc}}
		}
	}

	out := FleetRegime{
		Machines:   machines,
		Sensitive:  spec.ShortName(mcf.Name),
		Background: spec.ShortName(namd.Name),
		Curve:      traffic.Curve.String(),
		Rate:       traffic.Rate,
		Horizon:    traffic.Horizon,
		Seed:       seed,
	}
	for _, p := range mix {
		out.JobMix = append(out.JobMix, spec.ShortName(p.Name))
	}

	configs := []fleetRegimeConfig{
		{name: "round-robin", policy: fleet.PolicyRoundRobin},
		{name: "least-pressure", policy: fleet.PolicyLeastPressure},
		{name: "packed", policy: fleet.PolicyPacked},
	}
	// Per-machine engines run at the batch-favouring end of the §6.2 rule
	// tuning frontier (UsageThresh 800: near-full batch duty, weak local
	// QoS protection — see the -ablation tuning sweep). In this regime a
	// machine will not save its own service from co-located aggressors, so
	// p99 QoS is decided by *where* the fleet puts them. PressureScale is
	// pinned to the default threshold so classifier scores (and with them
	// the least-pressure ranking) keep their usual scale.
	caerCfg := caer.DefaultConfig()
	caerCfg.UsageThresh = 800
	for _, cfg := range configs {
		c := fleet.New(fleet.Config{
			Machines: specs,
			// As in the sched regime suite, the per-machine admission
			// threshold sits above any reachable score: machines admit
			// whenever a core is free (the intra-machine placer still picks
			// the least-interference domain first), so queueing is capacity-
			// driven and the comparison isolates *which machine* gets the
			// job. Threshold-driven per-machine shielding is the sched
			// package's own story.
			Sched: sched.Config{
				Policy:         sched.PolicyContentionAware,
				Heuristic:      caer.HeuristicRule,
				Caer:           caerCfg,
				PressureScale:  caer.DefaultConfig().UsageThresh,
				AdmitThreshold: 100,
			},
			Policy:        cfg.policy,
			Traffic:       traffic,
			Seed:          seed,
			MigratePeriod: cfg.migratePeriod,
			MaxPeriods:    400_000,
		})
		c.Run()
		rep := c.Report()
		lat := rep.MergedLatency(out.Sensitive)
		pr := FleetPolicyResult{
			Name:       cfg.name,
			Policy:     cfg.policy,
			Ticks:      rep.Ticks,
			Arrivals:   rep.Arrivals,
			Completed:  rep.Completed,
			Throughput: rep.Throughput(),
			Migrations: rep.Migrations,
			Requests:   int(lat.N()),
		}
		if lat.N() > 0 {
			pr.P50 = lat.Quantile(0.5)
			pr.P99 = lat.Quantile(0.99)
		}
		if rep.Wait.N() > 0 {
			pr.WaitP50 = rep.Wait.Quantile(0.5)
			pr.WaitP99 = rep.Wait.Quantile(0.99)
			pr.SojournP50 = rep.Sojourn.Quantile(0.5)
			pr.SojournP99 = rep.Sojourn.Quantile(0.99)
		}
		for _, n := range rep.Nodes {
			pr.MachineDispatches = append(pr.MachineDispatches, n.Dispatches)
		}
		out.Policies = append(out.Policies, pr)
	}
	return out
}

// Check enforces the fleet gate: least-pressure placement must strictly
// beat round-robin on the sensitive service's P99 request latency while
// draining the identical arrival schedule (equal admitted throughput).
func (r FleetRegime) Check() error {
	find := func(name string) *FleetPolicyResult {
		for i := range r.Policies {
			if r.Policies[i].Name == name {
				return &r.Policies[i]
			}
		}
		return nil
	}
	rr, lp := find("round-robin"), find("least-pressure")
	if rr == nil || lp == nil {
		return fmt.Errorf("fleet regime missing round-robin or least-pressure row")
	}
	if rr.Completed != rr.Arrivals || lp.Completed != lp.Arrivals {
		return fmt.Errorf("arrival schedule not drained: round-robin %d/%d, least-pressure %d/%d",
			rr.Completed, rr.Arrivals, lp.Completed, lp.Arrivals)
	}
	if rr.Completed != lp.Completed {
		return fmt.Errorf("admitted throughput unequal: round-robin completed %d, least-pressure %d",
			rr.Completed, lp.Completed)
	}
	if rr.Requests == 0 || lp.Requests == 0 {
		return fmt.Errorf("sensitive service recorded no requests: round-robin %d, least-pressure %d",
			rr.Requests, lp.Requests)
	}
	if lp.P99 >= rr.P99 {
		return fmt.Errorf("least-pressure p99 %.0f does not beat round-robin p99 %.0f",
			lp.P99, rr.P99)
	}
	return nil
}

// Table returns the fleet regime comparison as a table.
//
//caer:deterministic
func (r FleetRegime) Table() *report.Table {
	t := report.NewTable("policy", "completed", "jobs/kperiod",
		"svc_p50", "svc_p99", "wait_p99", "sojourn_p99", "migrations", "dispatches")
	for _, p := range r.Policies {
		t.AddRow(p.Name,
			fmt.Sprintf("%d/%d", p.Completed, p.Arrivals),
			fmt.Sprintf("%.2f", p.Throughput),
			fmt.Sprintf("%.0f", p.P50),
			fmt.Sprintf("%.0f", p.P99),
			fmt.Sprintf("%.0f", p.WaitP99),
			fmt.Sprintf("%.0f", p.SojournP99),
			fmt.Sprintf("%d", p.Migrations),
			fmt.Sprintf("%v", p.MachineDispatches))
	}
	return t
}

// Render writes the fleet regime summary.
func (r FleetRegime) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Fleet regimes (DESIGN.md §14): %d machines — %d x %s (sensitive), %d x %s (background) — %s traffic, rate %.3f over %d periods, jobs %v\n",
		r.Machines, r.Machines/2, r.Sensitive, r.Machines-r.Machines/2, r.Background,
		r.Curve, r.Rate, r.Horizon, r.JobMix); err != nil {
		return err
	}
	return r.Table().Render(w)
}

// WriteJSON emits the fleet regime suite as a machine-readable artifact
// (the BENCH_fleet.json format caer-bench writes for external tooling).
//
//caer:deterministic
func (r FleetRegime) WriteJSON(w io.Writer) error {
	return writeJSON(w, r)
}
