package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"caer/internal/caer"
	"caer/internal/fleet"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/sched"
	"caer/internal/spec"
)

// Fleet shape: two machines, each two 4-core LLC domains stepped by a
// worker pool of 2, with one relaunching service pinned in each domain.
const (
	fleetMachines    = 2
	fleetDomains     = 2
	fleetCores       = 8
	fleetWorkers     = 2
	fleetHorizon     = 2000 // periods of open-loop arrivals
	fleetMaxPeriods  = 6000 // drain cap; a round that has not drained by then fails
	fleetPeakRate    = 0.11 // arrivals per period at the diurnal peak
	fleetJitter      = 0.2
	serviceInstr     = 100_000
	jobInstr         = 100_000
	fleetServiceBase = 1 << 27 // fleet's layout for service j >= 1
)

// fleetService is one pinned service; the same pair sits on every machine.
type fleetService struct {
	prof spec.Profile
	core int
}

// fleetWorkload is fleet_partition: open-loop diurnal job arrivals over
// relaunching latency services, placed by least pressure and answered by
// the hybrid throttle+partition response.
type fleetWorkload struct {
	seed     int64
	horizon  int // periods of open-loop arrivals
	services []fleetService
	mix      []spec.Profile
}

func newFleetPartition(seed int64) *fleetWorkload {
	svc := profiles("omnetpp", "mcf")
	for i := range svc {
		svc[i].Exec.Instructions = serviceInstr
	}
	mix := profiles("lbm", "soplex", "astar", "povray")
	for i := range mix {
		mix[i].Exec.Instructions = jobInstr
	}
	return &fleetWorkload{
		seed:    seed,
		horizon: fleetHorizon,
		// Every domain hosts a service, so every placed job runs under a
		// CAER engine and the partition planner.
		services: []fleetService{{svc[0], 0}, {svc[1], fleetCores / fleetDomains}},
		mix:      mix,
	}
}

func (w *fleetWorkload) config(workers int) fleet.Config {
	machines := make([]fleet.MachineSpec, fleetMachines)
	for k := range machines {
		ms := fleet.MachineSpec{Cores: fleetCores, Domains: fleetDomains, Workers: workers}
		for _, s := range w.services {
			ms.Services = append(ms.Services, fleet.Service{Profile: s.prof, Core: s.core, Relaunch: true})
		}
		machines[k] = ms
	}
	// As in the repo's fleet regime suite, the engines sit at the
	// batch-favouring end of the rule tuning frontier (UsageThresh 800),
	// so throttling alone does not starve the open-loop job stream, while
	// PressureScale keeps classifier scores on their usual scale.
	ccfg := caer.DefaultConfig()
	ccfg.UsageThresh = 800
	return fleet.Config{
		Machines: machines,
		Sched: sched.Config{
			Policy:        sched.PolicyContentionAware,
			Heuristic:     caer.HeuristicRule,
			Caer:          ccfg,
			PressureScale: caer.DefaultConfig().UsageThresh,
			Response:      sched.ResponseHybrid,
			// Admission is capacity-driven: a job waits only for a free core.
			AdmitThreshold: 100,
			// Resizes drop stranded lines, exercising back-invalidation.
			Cluster: sched.ClusterConfig{ResizeMode: mem.ResizeInvalidate},
		},
		Policy: fleet.PolicyLeastPressure,
		Traffic: fleet.Traffic{
			Curve:   fleet.CurveDiurnal,
			Rate:    fleetPeakRate,
			Horizon: w.horizon,
			Mix:     w.mix,
			Jitter:  fleetJitter,
		},
		Seed:       w.seed,
		MaxPeriods: fleetMaxPeriods,
	}
}

// soloPeriods runs each service's request alone on an idle machine of the
// fleet's shape, with the base and seed machine 0 gives it: the
// denominator of the fleet's qos_slowdown.
func (w *fleetWorkload) soloPeriods() []float64 {
	out := make([]float64, len(w.services))
	for j, s := range w.services {
		base, seed := uint64(0), w.seed
		if j > 0 {
			base = fleetServiceBase + uint64(j-1)<<26
			seed = w.seed + 100 + int64(j-1)
		}
		m := machine.New(machine.Config{Cores: fleetCores, Domains: fleetDomains})
		p := s.prof.NewProcess(base, seed)
		m.Bind(s.core, p)
		for !p.Done() && m.Periods() < fleetMaxPeriods {
			m.RunPeriod()
		}
		out[j] = float64(m.Periods())
	}
	return out
}

func (w *fleetWorkload) setup() { fleet.New(w.config(fleetWorkers)).Nodes() }

// fleetRound is one drained fleet run.
type fleetRound struct {
	c        *fleet.Cluster
	rep      fleet.Report
	requests [][]float64 // per machine*len(services)+service: request periods
	solo     []float64
	digest   string
	ops      int
	errs     []string
}

// round builds the cluster and ticks it until the arrival schedule has
// drained, timing every tick into tm. Request durations are read from
// outside: each service core's retired-instruction counter crosses one
// request's length per completed request.
func (w *fleetWorkload) round(tm *stepTimer, workers int) *fleetRound {
	c := fleet.New(w.config(workers))
	rd := &fleetRound{c: c, requests: make([][]float64, fleetMachines*len(w.services))}
	last := make([]int, len(rd.requests))
	for !c.Done() && c.Ticks() < fleetMaxPeriods {
		t0 := time.Now()
		c.Tick()
		tm.add(time.Since(t0))
		for k, n := range c.Nodes() {
			for j, s := range w.services {
				i := k*len(w.services) + j
				done := n.Machine().ReadCounter(s.core, pmu.EventInstrRetired) / serviceInstr
				for uint64(len(rd.requests[i])) < done {
					rd.requests[i] = append(rd.requests[i], float64(c.Ticks()-last[i]))
					last[i] = c.Ticks()
				}
			}
		}
	}
	tm.sampleHeap()
	for _, n := range c.Nodes() {
		n.Machine().StopWorkers()
		for core := 0; core < n.Machine().Cores(); core++ {
			tm.instructions += n.Machine().ReadCounter(core, pmu.EventInstrRetired)
		}
	}
	rd.solo = w.soloPeriods()
	rd.rep = c.Report()
	rd.check(c)
	rd.finish()
	return rd
}

// check verifies the drained run and counts its operations: every arrival
// and every service request.
func (rd *fleetRound) check(c *fleet.Cluster) {
	r := rd.rep
	fail := func(format string, args ...any) { rd.errs = append(rd.errs, fmt.Sprintf(format, args...)) }
	rd.ops = r.Arrivals
	if !c.Done() {
		fail("fleet not drained after %d ticks", r.Ticks)
	}
	if r.Completed != r.Arrivals || r.Dispatched != r.Arrivals {
		fail("%d arrivals, %d dispatched, %d completed", r.Arrivals, r.Dispatched, r.Completed)
	}
	for i, s := range r.Services {
		rd.ops += len(rd.requests[i])
		if s.Requests != len(rd.requests[i]) {
			fail("service %s on machine %d: report counts %d requests, counters %d", s.Name, s.Machine, s.Requests, len(rd.requests[i]))
		}
	}
	for _, j := range r.Jobs {
		if j.DoneTick <= j.Arrived || j.Admitted == 0 {
			fail("job %d (%s): arrived %d, admitted %d, done %d", j.Index, j.Name, j.Arrived, j.Admitted, j.DoneTick)
		}
	}
}

// finish digests the round's simulated outputs.
func (rd *fleetRound) finish() {
	h := sha256.New()
	r := rd.rep
	fmt.Fprintf(h, "ticks=%d arrivals=%d dispatched=%d completed=%d migrations=%d solo=%v\n",
		r.Ticks, r.Arrivals, r.Dispatched, r.Completed, r.Migrations, rd.solo)
	for _, j := range r.Jobs {
		fmt.Fprintf(h, "%+v\n", j)
	}
	for i, s := range r.Services {
		fmt.Fprintf(h, "%s m%d req=%v\n", s.Name, s.Machine, rd.requests[i])
	}
	for _, n := range rd.c.Nodes() {
		s := n.Sched()
		fmt.Fprintf(h, "sched migrations=%d maxwait=%d degraded=%d jobs=%+v\n",
			s.Migrations(), s.MaxWait(), s.DegradedTicks(), s.JobReports())
		m := n.Machine()
		for d := 0; d < m.Domains(); d++ {
			hier := m.DomainHierarchy(d)
			fmt.Fprintf(h, "d%d l3=%+v mem=%d/%d\n", d, hier.L3().Stats(), hier.Memory().Accesses(), hier.Memory().QueuedCycles())
		}
	}
	rd.digest = fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// batchDuty is the placed jobs' R/(R+I), as runner.ModeScheduled defines
// it: engine run periods over engine periods, and a job on a domain with
// no engine counts as running every period it held a core.
func (rd *fleetRound) batchDuty() float64 {
	var run, paused float64
	for _, n := range rd.c.Nodes() {
		for _, r := range n.Sched().JobReports() {
			if r.RunPeriods+r.PausedPeriods > 0 {
				run += float64(r.RunPeriods)
				paused += float64(r.PausedPeriods)
			} else if r.Admitted > 0 && r.Done >= r.Admitted {
				run += float64(r.Done - r.Admitted + 1)
			}
		}
	}
	return run / (run + paused)
}

// simulated fills the round's simulated-time metrics.
func (w *fleetWorkload) simulated(rd *fleetRound, out *metrics) error {
	var ratios, all, sojourns []float64
	for i, reqs := range rd.requests {
		var sum float64
		for _, d := range reqs {
			sum += d
		}
		ratios = append(ratios, sum/float64(len(reqs))/rd.solo[i%len(w.services)])
		all = append(all, reqs...)
	}
	for _, j := range rd.rep.Jobs {
		sojourns = append(sojourns, float64(j.DoneTick-j.Arrived))
	}
	svc, err := percentile(all, 0.9)
	if err != nil {
		return fmt.Errorf("svc_req_p90_periods: %w", err)
	}
	soj, err := percentile(sojourns, 0.9)
	if err != nil {
		return fmt.Errorf("job_sojourn_p90_periods: %w", err)
	}
	out.set("qos_slowdown", "ratio", geomean(ratios))
	out.set("batch_duty", "ratio", rd.batchDuty())
	out.set("svc_req_p90_periods", "periods", svc)
	out.note("svc_req_p90_periods", fmt.Sprintf("n=%d", len(all)))
	out.set("job_sojourn_p90_periods", "periods", soj)
	out.note("job_sojourn_p90_periods", fmt.Sprintf("n=%d", len(sojourns)))
	out.set("jobs_per_kperiod", "1/kperiod", rd.rep.Throughput())
	return nil
}

// hierarchies lists every LLC domain's memory system in the fleet.
func (rd *fleetRound) hierarchies() []*mem.Hierarchy {
	var out []*mem.Hierarchy
	for _, n := range rd.c.Nodes() {
		for d := 0; d < n.Machine().Domains(); d++ {
			out = append(out, n.Machine().DomainHierarchy(d))
		}
	}
	return out
}
