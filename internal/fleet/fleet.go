// Package fleet scales the contention-aware execution stack from one
// machine to a cluster: a Cluster owns N simulated machines (each a
// multi-LLC-domain machine.Machine driven by an internal/sched scheduler),
// an open-loop traffic driver feeds jobs into a fleet-level admission
// queue, and a pluggable cross-machine placement policy dispatches them —
// round-robin, packed, or least-pressure using every machine's classifier
// summary, the cluster-level analogue of the paper's contention-aware
// placement. Queued work migrates between machines at a bounded rate when
// backlogs diverge, mirroring sched's bounded intra-machine migration one
// level up.
//
// Determinism contract: a fleet run is a pure function of its Config —
// machines step in index order, the traffic driver and every per-machine
// scheduler derive from Config.Seed, and per-machine domain parallelism
// (MachineSpec.Workers) inherits the machine package's bit-identical
// worker-pool contract. A single-machine fleet with up-front traffic is
// byte-identical to runner.ModeScheduled (pinned by TestFleetMatchesRunnerScheduled).
//
//caer:deterministic
package fleet

import (
	"bytes"
	"fmt"
	"io"

	"caer/internal/machine"
	"caer/internal/sched"
	"caer/internal/slo"
	"caer/internal/spec"
	"caer/internal/stats"
	"caer/internal/telemetry"
)

// Footprint layout, shared with internal/runner so a one-machine fleet
// reproduces ModeScheduled byte-for-byte: job i's footprint starts at
// batchBase + i*batchStride, latency services sit below batchBase.
const (
	batchBase   = 1 << 28
	batchStride = 1 << 26
	serviceBase = 1 << 27
)

// trackStride spaces the span-recorder track ids of consecutive machines:
// machine k's scheduler records spans at slotID + k*trackStride, so one
// process-wide Chrome trace covers the whole fleet without lane collisions.
const trackStride = 4096

// machineSeedStride separates machine k's service seeds from machine 0's,
// which keeps machine 0 identical to a standalone runner.ModeScheduled run.
const machineSeedStride = 1000

// Histogram geometries (periods). Fixed so per-machine histograms merge
// into fleet-wide aggregates (stats.Histogram.MergeMany requires identical
// geometry).
const (
	waitHistMax    = 1024
	sojournHistMax = 8192
	histBuckets    = 64
	// Service request latencies get finer buckets: QoS comparisons hinge on
	// tail shifts of tens of periods.
	latencyHistMax     = 4096
	latencyHistBuckets = 256
)

// Service is one latency-sensitive application pinned to a machine core.
type Service struct {
	// Profile is the benchmark; its Instructions count is one request's
	// work.
	Profile spec.Profile
	// Core pins the service within its machine.
	Core int
	// Relaunch runs the service as an open-loop request source: each time
	// the process completes, the request's duration in periods is recorded
	// into the service's latency histogram (the p50/p99 QoS metric) and
	// the process restarts. Without it the service runs to completion once
	// and gates the end of the run, exactly like runner.ModeScheduled's
	// latency app.
	Relaunch bool
}

// MachineSpec shapes one fleet machine.
type MachineSpec struct {
	// Cores and Domains size the machine; zero means Domains 2 and
	// Cores 4*Domains.
	Cores, Domains int
	// Workers sizes the machine's domain-stepper worker pool (domain
	// parallelism within the machine; bit-identical per seed at any
	// worker count). 0 or 1 = serial stepping.
	Workers int
	// Services are the machine's pinned latency-sensitive applications.
	Services []Service
}

func (ms MachineSpec) withDefaults() MachineSpec {
	if ms.Domains == 0 {
		ms.Domains = 2
	}
	if ms.Cores == 0 {
		ms.Cores = 4 * ms.Domains
	}
	return ms
}

// Config shapes a fleet run.
type Config struct {
	// Machines are the cluster members, in index order.
	Machines []MachineSpec
	// Sched configures every machine's scheduler (policy, thresholds,
	// aging, intra-machine migration). Its TrackOffset and TrackPrefix are
	// overridden per machine so the fleet shares one span ring.
	Sched sched.Config
	// Policy selects the cross-machine placement strategy.
	Policy Policy
	// Traffic is the open-loop arrival schedule.
	Traffic Traffic
	// Seed drives every stochastic choice: machine k's service j uses
	// Seed + 100*min(j,1) + (j-1) + 1000k, job i uses Seed+1+i, the
	// traffic driver Seed-1 — machine 0 matches runner.ModeScheduled's
	// seeding exactly.
	Seed int64
	// DispatchPerTick bounds fleet-queue dispatches per period; default 8.
	DispatchPerTick int
	// MigratePeriod evaluates at most one cross-machine migration every
	// this many periods; 0 (the default) disables fleet migration.
	MigratePeriod int
	// MigrateMargin is the minimum backlog gap (jobs) between the most and
	// least loaded machines before a migration fires; default 2.
	MigrateMargin int
	// MaxPeriods bounds Run as a safety valve; default 1,000,000.
	MaxPeriods int
	// SLO declares the per-node burn-rate objectives (zero disables the
	// engines; the per-node time-series stores always run).
	SLO SLOConfig
	// SeriesCapacity sizes each node's per-metric time-series rings, in
	// periods; default 512.
	SeriesCapacity int
	// ScrapePeriod is how often, in ticks, PolicyTelemetry scrapes every
	// node's exported registry; default 16. Other policies never scrape.
	ScrapePeriod int
	// StalenessHorizon is the scrape age, in ticks, past which a machine's
	// telemetry view is distrusted and PolicyTelemetry scores it with the
	// synchronous least-pressure fallback; default 4*ScrapePeriod.
	StalenessHorizon int
	// Scraper overrides the metric transport (tests inject outages);
	// default reads each node's registry directly.
	Scraper Scraper
	// Spans is the span recorder the whole fleet records into (schedulers,
	// engines, monitors, SLO alert lanes). nil uses telemetry.DefaultSpans;
	// the bench suites pass a private ring so artifacts are self-contained.
	Spans *telemetry.SpanRecorder
}

func (c Config) withDefaults() Config {
	if c.DispatchPerTick == 0 {
		c.DispatchPerTick = 8
	}
	if c.MigrateMargin == 0 {
		c.MigrateMargin = 2
	}
	if c.MaxPeriods == 0 {
		c.MaxPeriods = 1_000_000
	}
	if c.SeriesCapacity == 0 {
		c.SeriesCapacity = 512
	}
	if c.ScrapePeriod == 0 {
		c.ScrapePeriod = 16
	}
	if c.StalenessHorizon == 0 {
		c.StalenessHorizon = 4 * c.ScrapePeriod
	}
	c.SLO = c.SLO.withDefaults()
	return c
}

// service is one hosted latency app's running state.
type service struct {
	name      string
	core      int
	relaunch  bool
	proc      *machine.Process
	lastStart int // fleet tick the current request began
	requests  int
	latency   *stats.Histogram     // request durations, periods
	tel       *telemetry.Histogram // same durations, exported per service
}

// Node is one fleet machine: the simulated hardware, its scheduler, its
// latency services, and its own telemetry registry (merged into the
// fleet-wide snapshot by WriteMetrics with a machine label).
type Node struct {
	id       int
	m        *machine.Machine
	sched    *sched.Scheduler
	services []*service

	wait    *stats.Histogram // fleet-queue + machine-queue wait, periods
	sojourn *stats.Histogram // arrival -> completion, periods

	reg         *telemetry.Registry
	dispatches  *telemetry.Counter
	completions *telemetry.Counter
	withdrawals *telemetry.Counter
	queueDepth  *telemetry.Gauge
	sojournTel  *telemetry.Histogram

	// Observability v2: the exported placement signals PolicyTelemetry
	// scrapes, the per-period time-series store, and the SLO engine.
	freeCoresG   *telemetry.Gauge
	sensitivityG *telemetry.Gauge
	batchLoadG   *telemetry.Gauge
	pressureG    []*telemetry.Gauge // caer_core_pressure, one per latency app
	degraded     *telemetry.Counter
	lastDegraded uint64
	pressureBuf  []float64
	sensBuf      []float64
	sum          sched.Summary
	series       *telemetry.Series
	slo          *slo.Engine
}

// Sched exposes the machine's scheduler (decision log, reports) for
// result assembly and tests.
func (n *Node) Sched() *sched.Scheduler { return n.sched }

// Machine exposes the simulated hardware.
func (n *Node) Machine() *machine.Machine { return n.m }

// Registry exposes the node's telemetry registry.
func (n *Node) Registry() *telemetry.Registry { return n.reg }

// Cluster is the fleet scheduler: N machines, the fleet admission queue,
// the traffic driver, and the cross-machine placement policy.
type Cluster struct {
	cfg     Config
	nodes   []*Node
	placer  Placer
	traffic *driver

	jobs  []*job
	queue fifo
	live  []int // dispatched-but-unfinished job indices, dispatch order
	views []NodeView

	tick       int
	migrations int

	// Telemetry control plane (see telemetry.go).
	scraper   Scraper
	scrapeBuf bytes.Buffer
	tel       []telState
	decisions []Decision
	// migrateFrom marks an in-flight cross-machine migration so dispatchTo
	// logs it as such; -1 outside maybeMigrate.
	migrateFrom int
}

// New builds the cluster: machines, services, scheduler per machine, and
// the traffic driver. It panics on an empty machine list or an empty
// traffic mix with a positive rate.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if len(cfg.Machines) == 0 {
		panic("fleet: cluster needs at least one machine")
	}
	if len(cfg.Traffic.Mix) == 0 {
		panic("fleet: traffic needs a non-empty job mix")
	}
	c := &Cluster{
		cfg:         cfg,
		placer:      cfg.Policy.NewPlacer(),
		traffic:     newDriver(cfg.Traffic, cfg.Seed-1),
		views:       make([]NodeView, len(cfg.Machines)),
		tel:         make([]telState, len(cfg.Machines)),
		migrateFrom: -1,
	}
	for k := range c.tel {
		c.tel[k].lastTick = -1
	}
	c.scraper = cfg.Scraper
	if c.scraper == nil {
		c.scraper = registryScraper{c}
	}
	multi := len(cfg.Machines) > 1
	for k, ms := range cfg.Machines {
		c.nodes = append(c.nodes, newNode(k, ms, &cfg, multi))
	}
	return c
}

// newNode builds machine k. Service seeding mirrors runner.ModeScheduled
// for machine 0 (service 0: base 0, seed Seed; service j: base
// serviceBase+(j-1)*batchStride, seed Seed+100+(j-1)), shifted by
// machineSeedStride per further machine.
func newNode(k int, ms MachineSpec, cfg *Config, multi bool) *Node {
	ms = ms.withDefaults()
	m := machine.New(machine.Config{Cores: ms.Cores, Domains: ms.Domains, Workers: ms.Workers})
	scfg := cfg.Sched
	scfg.TrackOffset = int32(k) * trackStride
	scfg.Spans = cfg.Spans
	if multi {
		scfg.TrackPrefix = fmt.Sprintf("m%d/", k)
	}
	n := &Node{
		id:      k,
		m:       m,
		sched:   sched.New(m, scfg),
		wait:    stats.NewHistogram(0, waitHistMax, histBuckets),
		sojourn: stats.NewHistogram(0, sojournHistMax, histBuckets),
		reg:     telemetry.NewRegistry(),
	}
	n.dispatches = n.reg.Counter("caer_fleet_node_dispatches_total", "jobs dispatched to this machine")
	n.completions = n.reg.Counter("caer_fleet_node_completions_total", "jobs completed on this machine")
	n.withdrawals = n.reg.Counter("caer_fleet_node_withdrawals_total", "queued jobs withdrawn from this machine by fleet migration")
	n.queueDepth = n.reg.Gauge("caer_fleet_node_queue_depth", "jobs waiting in this machine's admission queue")
	n.sojournTel = n.reg.Histogram("caer_fleet_node_sojourn_periods", "job arrival-to-completion time on this machine, in periods", 0, sojournHistMax, histBuckets)
	if len(ms.Services) == 0 {
		panic(fmt.Sprintf("fleet: machine %d needs at least one latency service", k))
	}
	for j, sv := range ms.Services {
		base := uint64(0)
		seed := cfg.Seed + machineSeedStride*int64(k)
		if j > 0 {
			base = serviceBase + uint64(j-1)*batchStride
			seed = cfg.Seed + 100 + int64(j-1) + machineSeedStride*int64(k)
		}
		proc := sv.Profile.NewProcess(base, seed)
		name := spec.ShortName(sv.Profile.Name)
		n.sched.AddLatency(name, sv.Core, proc)
		n.services = append(n.services, &service{
			name:     name,
			core:     sv.Core,
			relaunch: sv.Relaunch,
			proc:     proc,
			latency:  stats.NewHistogram(0, latencyHistMax, latencyHistBuckets),
			tel: n.reg.Histogram("caer_fleet_request_latency_periods",
				"open-loop request duration on this machine, in periods",
				0, latencyHistMax, latencyHistBuckets, "service", name),
		})
	}

	// The exported placement signals (observability v2): PolicyTelemetry
	// reads these — not the classifier — so every signal the placer acts
	// on must be a registered series.
	n.freeCoresG = n.reg.Gauge("caer_fleet_node_free_cores", "unoccupied batch cores on this machine")
	n.sensitivityG = n.reg.Gauge("caer_fleet_node_sensitivity", "summed classifier sensitivity of this machine's latency apps")
	n.batchLoadG = n.reg.Gauge("caer_fleet_node_batch_load", "summed classifier aggressiveness of this machine's resident batch jobs")
	n.degraded = n.reg.Counter("caer_fleet_node_degraded_ticks_total", "fail-open degraded periods summed over this machine's CAER engines")
	apps := n.sched.LatencyApps()
	n.pressureBuf = make([]float64, apps)
	n.sensBuf = make([]float64, apps)
	for _, sv := range n.services {
		n.pressureG = append(n.pressureG, n.reg.Gauge("caer_core_pressure",
			"normalized windowed LLC-miss pressure of the core's latency app",
			"app", sv.name, "core", fmt.Sprintf("%d", sv.core), "role", "latency"))
	}

	// The time-series store samples every registered metric once per tick;
	// the SLO engine reads it. Both register their own export families, so
	// they come last — the first Sample absorbs them via one cold extend.
	n.series = telemetry.NewSeries(n.reg, cfg.SeriesCapacity)
	if cfg.SLO.enabled() {
		if objs := cfg.SLO.objectives(n); len(objs) > 0 {
			spans := cfg.Spans
			if spans == nil {
				spans = telemetry.DefaultSpans
			}
			track := int32(k)*trackStride + trackStride - 1
			prefix := ""
			if multi {
				prefix = fmt.Sprintf("m%d/", k)
			}
			spans.NameTrack(track, prefix+"slo")
			n.slo = slo.NewEngine(slo.Config{
				Series:     n.series,
				Objectives: objs,
				Registry:   n.reg,
				Spans:      spans,
				Track:      track,
			})
		}
	}
	return n
}

// Nodes returns the fleet members in index order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Tick advances the whole fleet one period: open-loop arrivals enter the
// fleet queue, the placer dispatches bounded work onto machines, at most
// one bounded-rate cross-machine migration fires, every machine steps one
// period (in index order; domain-parallel inside each machine), and
// completions are harvested. Hot path: the per-period work is
// allocation-free, with arrivals, dispatch commits, migration, and
// request relaunches delegated to the documented cold barriers.
//
//caer:hot
func (c *Cluster) Tick() {
	if c.cfg.Policy == PolicyTelemetry && c.tick%c.cfg.ScrapePeriod == 0 {
		c.scrapeAll()
	}
	if n := c.traffic.arrivals(c.tick); n > 0 {
		c.arrive(n)
	}
	c.dispatch()
	c.maybeMigrate()
	for _, n := range c.nodes {
		n.sched.Step()
	}
	c.tick++
	c.harvest()
	for _, n := range c.nodes {
		n.syncTelemetry()
	}
	telemetry.FleetTicks.Inc()
}

// arrive materializes n arrivals from the traffic driver into the fleet
// queue. Cold path: it allocates job records.
//
//caer:cold arrival materializes job records, allocating by documented design
func (c *Cluster) arrive(n int) {
	for i := 0; i < n; i++ {
		prof, idx := c.traffic.next()
		c.jobs = append(c.jobs, &job{
			name:    spec.ShortName(prof.Name),
			prof:    prof,
			idx:     idx,
			state:   JobQueued,
			node:    -1,
			schedID: -1,
			arrived: c.tick,
		})
		c.queue.push(len(c.jobs) - 1)
		telemetry.FleetArrivals.Inc()
	}
}

// dispatch drains the head of the fleet queue onto machines, bounded per
// tick, FIFO: when the placer finds no eligible machine for the head job,
// dispatch stalls until capacity frees up (head-of-line order is part of
// the determinism contract). The scan is allocation-free; the per-job
// commit happens in the cold dispatchTo barrier.
func (c *Cluster) dispatch() {
	for budget := c.cfg.DispatchPerTick; budget > 0 && c.queue.len() > 0; budget-- {
		ji := c.queue.peek()
		c.fillViews(c.jobs[ji].name)
		k := c.placer.Place(c.views)
		if k < 0 {
			break
		}
		c.queue.pop()
		c.placer.Commit(k)
		c.dispatchTo(k, ji)
	}
	telemetry.FleetQueueDepth.Set(float64(c.queue.len()))
}

// fillViews refreshes the per-machine placement views for a candidate job.
// Allocation-free: Summarize refills the caller-held summaries in place.
func (c *Cluster) fillViews(name string) {
	for k, n := range c.nodes {
		n.sched.Summarize(&c.views[k].Summary)
		aggr, ok := n.sched.AppAggressiveness(name)
		if !ok {
			aggr = 0.5 // classifier prior for a never-seen program
		}
		c.views[k].Aggr = aggr
	}
	c.fillTelViews()
}

// dispatchTo submits fleet job ji to machine k. Cold path: Submit
// registers a comm slot and names a span track. The footprint base and
// seed derive from the job's global arrival index, not the machine, so a
// migrated job re-runs identically wherever it lands.
//
//caer:cold the dispatch commit registers a comm slot and names a span track, allocating by documented design
func (c *Cluster) dispatchTo(k, ji int) {
	j := c.jobs[ji]
	n := c.nodes[k]
	prof := j.prof
	base := uint64(batchBase) + uint64(j.idx)*batchStride
	seed := c.cfg.Seed + 1 + int64(j.idx)
	j.schedID = n.sched.Submit(sched.Job{Name: j.name, New: func() *machine.Process {
		return prof.NewProcess(base, seed)
	}})
	j.state = JobDispatched
	j.node = k
	c.live = append(c.live, ji)
	n.dispatches.Inc()
	telemetry.FleetDispatches.Inc()
	kind, from := DecisionDispatch, -1
	if c.migrateFrom >= 0 {
		kind, from = DecisionMigrate, c.migrateFrom
	}
	c.decisions = append(c.decisions, Decision{
		Tick: c.tick, Kind: kind, Job: ji, Name: j.name, From: from, To: k,
		Fresh: c.tel[k].fresh(c.tick, c.cfg.StalenessHorizon),
	})
}

// maybeMigrate evaluates at most one cross-machine migration every
// MigratePeriod ticks: when the most backlogged machine's queue exceeds
// the least backlogged eligible machine's by MigrateMargin, the most
// recently dispatched still-waiting job is withdrawn and re-dispatched
// there. Cold path (rate-bounded by construction, like sched's
// maybeMigrate one level down).
//
//caer:cold migration withdraws and re-dispatches a job, allocating by documented design
func (c *Cluster) maybeMigrate() {
	if c.cfg.MigratePeriod <= 0 || c.tick == 0 || c.tick%c.cfg.MigratePeriod != 0 {
		return
	}
	src, dst := -1, -1
	srcQ, dstQ := 0, 0
	for k, n := range c.nodes {
		q := n.sched.QueueLen()
		if src == -1 || q > srcQ {
			src, srcQ = k, q
		}
		if dst == -1 || q < dstQ {
			dst, dstQ = k, q
		}
	}
	if src == dst || srcQ-dstQ < c.cfg.MigrateMargin {
		return
	}
	for i := len(c.live) - 1; i >= 0; i-- {
		ji := c.live[i]
		j := c.jobs[ji]
		if j.node != src || j.state != JobDispatched {
			continue
		}
		c.fillViews(j.name)
		if !c.views[dst].eligible() {
			return
		}
		if !c.nodes[src].sched.Withdraw(j.schedID) {
			continue // raced into running; try the next newest
		}
		c.nodes[src].withdrawals.Inc()
		c.live = append(c.live[:i], c.live[i+1:]...)
		j.migrations++
		c.migrations++
		telemetry.FleetMigrations.Inc()
		c.migrateFrom = src
		c.dispatchTo(dst, ji)
		c.migrateFrom = -1
		return
	}
}

// harvest scans live jobs for admissions and completions and services for
// finished requests. Hot path: allocation-free — the live list compacts in
// place and request relaunches are delegated to the cold finishRequest
// barrier.
func (c *Cluster) harvest() {
	w := 0
	for _, ji := range c.live {
		j := c.jobs[ji]
		n := c.nodes[j.node]
		if j.admitted == 0 {
			if a := n.sched.JobAdmittedPeriod(j.schedID); a > 0 {
				j.admitted = a
				wait := int(a) - 1 - j.arrived
				if wait < 0 {
					wait = 0
				}
				n.wait.Add(float64(wait))
			}
		}
		if n.sched.JobStateOf(j.schedID) == sched.JobDone {
			j.state = JobFinished
			j.doneTick = c.tick
			d := float64(c.tick - j.arrived)
			n.sojourn.Add(d)
			n.sojournTel.Observe(d)
			n.completions.Inc()
			telemetry.FleetCompletions.Inc()
			continue
		}
		c.live[w] = ji
		w++
	}
	c.live = c.live[:w]
	for _, n := range c.nodes {
		n.queueDepth.Set(float64(n.sched.QueueLen()))
		for _, s := range n.services {
			if s.relaunch && s.proc.Done() {
				c.finishRequest(n, s)
			}
		}
	}
}

// finishRequest closes one open-loop service request and starts the next:
// duration recorded, core flushed (a fresh request does not inherit the
// old one's cache state), process relaunched. Cold path: Relaunch
// reseeds the process RNG.
//
//caer:cold the request relaunch reseeds the service process, allocating by documented design
func (c *Cluster) finishRequest(n *Node, s *service) {
	d := float64(c.tick - s.lastStart)
	s.latency.Add(d)
	s.tel.Observe(d)
	s.requests++
	n.m.FlushCore(s.core)
	s.proc.Relaunch()
	s.lastStart = c.tick
	telemetry.FleetRequests.Inc()
}

// Done reports whether the fleet has fully drained: the traffic schedule
// is exhausted, the fleet queue is empty, every dispatched job finished,
// and every run-to-completion service is done (open-loop Relaunch
// services never gate, like the runner's relaunch-forever batches).
//
//caer:hot
func (c *Cluster) Done() bool {
	if !c.traffic.exhausted(c.tick) || c.queue.len() > 0 || len(c.live) > 0 {
		return false
	}
	for _, n := range c.nodes {
		for _, s := range n.services {
			if !s.relaunch && !s.proc.Done() {
				return false
			}
		}
	}
	return true
}

// Tick count so far.
func (c *Cluster) Ticks() int { return c.tick }

// Run steps the fleet until Done or MaxPeriods, returning the periods
// executed. Machines' worker pools are stopped on return.
func (c *Cluster) Run() int {
	defer func() {
		for _, n := range c.nodes {
			n.m.StopWorkers()
		}
	}()
	for c.tick < c.cfg.MaxPeriods && !c.Done() {
		c.Tick()
	}
	return c.tick
}

// WriteMetrics writes one Prometheus snapshot covering the whole fleet:
// the process-global registry unprefixed plus every machine's registry
// with a machine="<k>" label. Export path (locks, allocates).
func (c *Cluster) WriteMetrics(w io.Writer) error {
	merged := telemetry.NewRegistry()
	merged.Union(telemetry.Default())
	for k, n := range c.nodes {
		merged.Union(n.reg, "machine", fmt.Sprintf("%d", k))
	}
	return merged.WritePrometheus(w)
}

// ServeTelemetry starts the fleet telemetry endpoint: /metrics serves the
// merged fleet snapshot, /trace the shared span ring with per-machine
// lane prefixes. Close the returned listener to stop.
func (c *Cluster) ServeTelemetry(addr string) (io.Closer, error) {
	return telemetry.ServeWith(addr, c.WriteMetrics)
}
