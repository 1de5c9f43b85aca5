// Package sched is the contention-aware placement and admission subsystem
// layered over the CAER runtime's signals. Where the paper's CAER only ever
// throttles a batch application already glued to a fixed core (its §7
// future work points at richer responses), sched decides *where* and
// *when* batch work runs on a multi-LLC-domain machine:
//
//   - a Classifier maintains online per-application contention profiles
//     (aggressiveness = normalized LLC-miss pressure; sensitivity =
//     normalized LLC reuse) from windowed PMU samples and engine verdicts,
//     with hysteresis on the binary classes (LFOC-style);
//   - a placement engine scores LLC domains with a greedy predicted-
//     interference function behind a pluggable Placer interface
//     (contention-aware, round-robin, packed policies);
//   - an admission queue holds submitted jobs back while every eligible
//     domain's predicted pressure exceeds a threshold, admitting them as
//     pressure subsides, with a starvation-avoidance aging bound;
//   - bounded-rate migration re-places at most one running job per
//     migration interval when another domain's predicted interference is
//     lower by a hysteresis margin.
//
// Each placed job still runs under a per-job CAER engine (detection +
// throttling, scoped to its domain's latency-sensitive neighbours), so
// placement and the paper's reaction machinery compose. The per-period
// observation/decision path is allocation-free and on caer-vet's hot
// path, reached from the //caer:hot roots.
//
//caer:deterministic
package sched

import (
	"fmt"

	"caer/internal/caer"
	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/telemetry"
)

// ResponseKind selects the scheduler's contention response family.
//
//caer:enum
type ResponseKind int

const (
	// ResponseThrottle pauses a domain's batch set on contention verdicts
	// (the paper's red-light/green-light and soft-lock levers). Default.
	ResponseThrottle ResponseKind = iota
	// ResponsePartition never pauses: it resizes LLC way-partitions
	// instead, confining aggressors so they physically cannot evict the
	// sensitive apps' lines (LFOC-style).
	ResponsePartition
	// ResponseHybrid does both: partitions are maintained and contention
	// verdicts still throttle.
	ResponseHybrid
)

// String names the response kind.
func (k ResponseKind) String() string {
	switch k {
	case ResponseThrottle:
		return "throttle"
	case ResponsePartition:
		return "partition"
	case ResponseHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("ResponseKind(%d)", int(k))
	}
}

// DecisionKind classifies an entry of the scheduler's decision log.
//
//caer:enum
type DecisionKind int

const (
	// DecisionAdmit records a job leaving the queue for a core.
	DecisionAdmit DecisionKind = iota
	// DecisionMigrate records a running job moving between domains.
	DecisionMigrate
	// DecisionComplete records a job finishing and releasing its core.
	DecisionComplete
	// DecisionWithdraw records a waiting job being pulled back out of the
	// queue (fleet cross-machine migration re-dispatches it elsewhere).
	DecisionWithdraw
)

// String names the decision kind.
func (k DecisionKind) String() string {
	switch k {
	case DecisionAdmit:
		return "admit"
	case DecisionMigrate:
		return "migrate"
	case DecisionComplete:
		return "complete"
	case DecisionWithdraw:
		return "withdraw"
	default:
		return fmt.Sprintf("DecisionKind(%d)", int(k))
	}
}

// Decision is one entry of the placement/admission timeline.
type Decision struct {
	Period uint64 // scheduler period (1-based) the decision was taken in
	Kind   DecisionKind
	Job    int    // job index (submission order)
	Name   string // job name
	From   int    // source domain (-1 for admissions)
	To     int    // target domain (-1 for completions)
	Core   int    // core involved
	Waited int    // periods spent queued (admissions)
	Aged   bool   // admission was forced by the aging bound
	Queued int    // queue length after the decision
}

// Job is one batch work item submitted to the admission queue. New builds
// the job's process when it is first placed; it runs to completion and is
// not relaunched, so its profile should carry a finite instruction count.
type Job struct {
	Name string
	New  func() *machine.Process
}

// Config tunes the scheduler.
type Config struct {
	// Policy selects the placement strategy (default PolicyRoundRobin,
	// the zero value, so the contention-aware behaviour is opt-in).
	Policy Policy
	// Heuristic and Caer configure the per-job CAER engines (defaults:
	// rule-based pairing, caer.DefaultConfig).
	Heuristic caer.HeuristicKind
	Caer      caer.Config
	// PressureScale is the misses/period (and hits/period) rate that
	// normalizes to a 0.5 classifier score; default Caer.UsageThresh.
	PressureScale float64
	// AdmitThreshold is the predicted-interference score above which the
	// chosen domain refuses admission and the queue waits. Default 0.75.
	AdmitThreshold float64
	// AgingBound is the starvation-avoidance limit: a job that has waited
	// this many periods is admitted to the best domain with a free core
	// regardless of the threshold. Default 400.
	AgingBound int
	// MigrationPeriod evaluates at most one job migration every this many
	// periods; 0 disables migration (the default).
	MigrationPeriod int
	// MigrationMargin is the minimum predicted-interference improvement a
	// migration must buy; default 0.25.
	MigrationMargin float64
	// Hysteresis is the classifier's class-flip streak; default 8.
	Hysteresis int
	// Response selects the contention response family: throttle (the
	// default), LLC way-partitioning, or both (DESIGN.md §16).
	Response ResponseKind
	// Cluster tunes the partition planner when Response is
	// ResponsePartition or ResponseHybrid.
	Cluster ClusterConfig
	// TrackOffset shifts every span-recorder track id this scheduler uses
	// by a constant, so N schedulers (one per fleet machine) can share one
	// process-wide span ring without colliding on slot ids: machine k's
	// fleet layer passes a disjoint offset and one Chrome trace covers the
	// whole fleet. 0 (the default) keeps single-machine traces unchanged.
	TrackOffset int32
	// TrackPrefix prepends a lane-name prefix (e.g. "m3/") to every span
	// track this scheduler names, so the merged fleet trace identifies
	// which machine each lane belongs to. "" (the default) keeps
	// single-machine lane names unchanged.
	TrackPrefix string
	// Spans is the recorder every span this scheduler (and the monitors
	// and engines it builds) emits lands on. nil (the default) uses the
	// process-wide telemetry.DefaultSpans; the fleet layer passes its own
	// ring so a fleet run's trace is self-contained and deterministic
	// regardless of what else the process records.
	Spans *telemetry.SpanRecorder
}

func (c Config) withDefaults() Config {
	if c.Caer.WindowSize == 0 {
		c.Caer = caer.DefaultConfig()
	}
	if c.PressureScale == 0 {
		c.PressureScale = c.Caer.UsageThresh
	}
	if c.PressureScale <= 0 {
		c.PressureScale = 150
	}
	if c.AdmitThreshold == 0 {
		c.AdmitThreshold = 0.75
	}
	if c.AgingBound == 0 {
		c.AgingBound = 400
	}
	if c.MigrationMargin == 0 {
		c.MigrationMargin = 0.25
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 8
	}
	return c
}

// latApp is one hosted latency-sensitive application.
type latApp struct {
	name       string
	core       int
	domain     int
	app        int // classifier id
	proc       *machine.Process
	slot       *comm.Slot
	mon        *caer.Monitor
	pmu        *pmu.PMU // scheduler's own probe (misses + accesses)
	donePeriod uint64   // 1-based period the app completed in; 0 = running
}

// jobState is a submitted job's full lifecycle record.
type jobState struct {
	spec  Job
	app   int // classifier id (shared between same-named jobs)
	state JobState

	proc   *machine.Process
	slot   *comm.Slot
	pmu    *pmu.PMU
	engine *caer.Engine // nil on domains without latency apps

	core, domain int
	waited       int
	aged         bool
	admitted     uint64 // 1-based period; 0 = never
	done         uint64

	migrations int
	missTotal  float64          // lifetime LLC misses observed by the scheduler
	accStats   caer.EngineStats // stats of engines abandoned by migration
	lastPos    uint64           // engine verdict counters already attributed
	lastNeg    uint64
}

// Scheduler drives a multi-LLC-domain machine one sampling period at a
// time: latency-sensitive apps are bound up front (one monitor each, as in
// caer.Runtime), while batch jobs flow through the admission queue and the
// placement engine instead of being pinned at construction.
type Scheduler struct {
	m          *machine.Machine
	cfg        Config
	table      *comm.Table
	placer     Placer
	classifier *Classifier

	latency   []latApp
	jobs      []*jobState
	queue     *jobQueue
	appByName map[string]int

	// Fixed per-domain state, allocated at start.
	views            []View
	domDirective     []comm.Directive
	freeCount        []int
	domNeighborSlots [][]*comm.Slot
	coreBusy         []bool

	// Partition-response state (nil/empty under ResponseThrottle):
	// per-domain planners, verdict-driven confinement pressure, and the
	// desired/applied per-local-core masks (resizes fire only on a
	// want!=applied delta, keeping the per-period path allocation-free).
	clusterers   []*Clusterer
	domPressure  []int
	wantMask     [][]mem.WayMask
	appliedMask  [][]mem.WayMask
	classScratch []AppClass
	coreScratch  []int

	decisions  []Decision
	migrations int
	maxWait    int
	period     uint64
	started    bool
	// spans is the resolved recorder (Config.Spans or DefaultSpans).
	spans *telemetry.SpanRecorder
}

// New builds a scheduler over m. The machine should have at least one LLC
// domain with a free core beyond the latency apps; two or more domains make
// placement meaningful.
func New(m *machine.Machine, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	if err := cfg.Caer.Validate(); err != nil {
		panic(err.Error())
	}
	spans := cfg.Spans
	if spans == nil {
		spans = telemetry.DefaultSpans
	}
	return &Scheduler{
		m:          m,
		cfg:        cfg,
		spans:      spans,
		table:      comm.NewTable(cfg.Caer.WindowSize),
		placer:     cfg.Policy.NewPlacer(),
		classifier: NewClassifier(cfg.PressureScale, cfg.Hysteresis),
		appByName:  make(map[string]int),
	}
}

// Table exposes the communication table (inspection and tests).
func (s *Scheduler) Table() *comm.Table { return s.table }

// Classifier exposes the online contention classifier.
func (s *Scheduler) Classifier() *Classifier { return s.classifier }

// Policy returns the configured placement policy.
func (s *Scheduler) Policy() Policy { return s.cfg.Policy }

// Period returns the number of periods stepped so far.
func (s *Scheduler) Period() uint64 { return s.period }

// Migrations returns how many cross-domain job migrations occurred.
func (s *Scheduler) Migrations() int { return s.migrations }

// MaxWait returns the longest time (periods) any admitted job spent
// queued. The admission queue's starvation bound guarantees this never
// exceeds Config.AgingBound while cores are available.
func (s *Scheduler) MaxWait() int { return s.maxWait }

// QueueLen returns the number of jobs currently waiting.
func (s *Scheduler) QueueLen() int {
	if s.queue == nil {
		return 0
	}
	return s.queue.len()
}

// JobStateOf returns job's lifecycle state. Allocation-free; the fleet
// layer polls it every period to harvest admissions and completions.
func (s *Scheduler) JobStateOf(job int) JobState { return s.jobs[job].state }

// JobAdmittedPeriod returns the 1-based period job left the queue for a
// core (0 = not yet admitted). Allocation-free.
func (s *Scheduler) JobAdmittedPeriod(job int) uint64 { return s.jobs[job].admitted }

// JobDonePeriod returns the 1-based period job completed in (0 = still
// queued or running). Allocation-free.
func (s *Scheduler) JobDonePeriod(job int) uint64 { return s.jobs[job].done }

// JobWaited returns how many periods job has spent in the admission queue
// so far. Allocation-free.
func (s *Scheduler) JobWaited(job int) int { return s.jobs[job].waited }

// AppAggressiveness returns the classifier's aggressiveness score for the
// named application, or (0, false) if this scheduler has never seen it.
// The fleet placer consults every machine's classifier this way, so a job
// profiled on one machine informs placement on all of them.
func (s *Scheduler) AppAggressiveness(name string) (float64, bool) {
	//caer:allow hotpath read-only lookup in the name table built at Submit time; the fleet dispatch scan never grows it
	app, ok := s.appByName[name]
	if !ok {
		return 0, false
	}
	return s.classifier.Aggressiveness(app), true
}

// Summary is the whole machine's state as the fleet-level placer sees it:
// the per-machine analogue of View, aggregated over every LLC domain. The
// scheduler refreshes a caller-held Summary in place, allocation-free.
type Summary struct {
	// FreeCores counts unoccupied batch cores across all domains.
	FreeCores int
	// Queued is the admission-queue depth.
	Queued int
	// Sensitivity is the summed classifier sensitivity of the machine's
	// latency-sensitive apps.
	Sensitivity float64
	// Pressure is the latency apps' summed windowed LLC-miss pressure,
	// normalized per app to [0, 1).
	Pressure float64
	// BatchLoad is the summed aggressiveness of resident batch jobs.
	BatchLoad float64
}

// Summarize fills sum with the machine-wide placement summary. It mirrors
// fillViews but collapses domains, and runs on the fleet's per-period
// dispatch path: allocation-free.
func (s *Scheduler) Summarize(sum *Summary) {
	free := 0
	if s.started {
		for _, f := range s.freeCount {
			free += f
		}
	} else {
		free = s.m.Cores() - len(s.latency)
	}
	sum.FreeCores = free
	// Count waiting states rather than the live ring: before the first Step
	// the ring does not exist yet (start seeds it from s.jobs), but the
	// fleet placer already needs the pre-start backlog.
	queued := 0
	for _, j := range s.jobs {
		if j.state == JobWaiting {
			queued++
		}
	}
	sum.Queued = queued
	sum.Sensitivity = 0
	sum.Pressure = 0
	sum.BatchLoad = 0
	for i := range s.latency {
		la := &s.latency[i]
		sum.Sensitivity += s.classifier.Sensitivity(la.app)
		p := la.slot.WindowMean()
		sum.Pressure += p / (p + s.cfg.PressureScale)
	}
	for _, j := range s.jobs {
		if j.state == JobRunning {
			sum.BatchLoad += s.classifier.Aggressiveness(j.app)
		}
	}
}

// LatencyApps returns the number of hosted latency-sensitive apps.
//
//caer:hot
func (s *Scheduler) LatencyApps() int { return len(s.latency) }

// Monitor returns latency app i's CAER-M monitor, in registration order —
// the fault-injection hook (SetDown) the chaos and SLO suites script
// monitor outages through, mirroring the runner's Monitors accessor.
func (s *Scheduler) Monitor(i int) *caer.Monitor { return s.latency[i].mon }

// LatencySignals fills per-latency-app placement signals in registration
// order: pressure[i] is app i's normalized windowed LLC-miss pressure
// (p/(p+PressureScale), the same term Summarize aggregates), and
// sensitivity[i] its classifier sensitivity. Both slices must hold at
// least LatencyApps entries. Allocation-free — the fleet telemetry export
// calls it every period to keep its caer_core_pressure gauges live.
func (s *Scheduler) LatencySignals(pressure, sensitivity []float64) {
	for i := range s.latency {
		la := &s.latency[i]
		p := la.slot.WindowMean()
		pressure[i] = p / (p + s.cfg.PressureScale)
		sensitivity[i] = s.classifier.Sensitivity(la.app)
	}
}

// DegradedTicks returns the lifetime fail-open degraded periods summed
// over every CAER engine this scheduler has run, including engines
// abandoned by migration. Allocation-free — the fleet telemetry export
// polls it every period to drive a degraded-ticks budget SLO.
func (s *Scheduler) DegradedTicks() uint64 {
	var total uint64
	for _, j := range s.jobs {
		total += j.accStats.DegradedTicks
		if j.engine != nil {
			total += j.engine.Stats().DegradedTicks
		}
	}
	return total
}

// Decisions returns a copy of the placement/admission timeline.
func (s *Scheduler) Decisions() []Decision {
	out := make([]Decision, len(s.decisions))
	copy(out, s.decisions)
	return out
}

// AddLatency binds a latency-sensitive application to a core under a
// CAER-M monitor. Must be called before the first Step.
func (s *Scheduler) AddLatency(name string, core int, proc *machine.Process) {
	s.mustNotBeStarted()
	if core < 0 || core >= s.m.Cores() {
		panic(fmt.Sprintf("sched: latency core %d out of range [0,%d)", core, s.m.Cores()))
	}
	for _, la := range s.latency {
		if la.core == core {
			panic(fmt.Sprintf("sched: core %d already hosts latency app %s", core, la.name))
		}
	}
	s.m.Bind(core, proc)
	slot := s.table.Register(name, comm.RoleLatency)
	mon := caer.NewMonitor(pmu.New(s.m, core), slot)
	mon.SetSpans(s.spans, s.track(slot), s.cfg.TrackPrefix)
	s.latency = append(s.latency, latApp{
		name:   name,
		core:   core,
		domain: s.m.DomainOf(core),
		app:    s.classifier.AddApp(name),
		proc:   proc,
		slot:   slot,
		mon:    mon,
		pmu:    pmu.New(s.m, core),
	})
}

// Submit queues a batch job. Jobs sharing a Name share a classifier
// profile, so repeated instances of the same program benefit from what
// earlier runs taught the classifier. Jobs are admitted in submission
// order (FIFO with aging). Submission is allowed both before the first
// Step (the closed batch-set shape runner.ModeScheduled uses) and while
// the scheduler is running (open-loop arrivals dispatched by the fleet
// layer); a job submitted mid-run joins the tail of the queue.
func (s *Scheduler) Submit(j Job) int {
	if j.Name == "" || j.New == nil {
		panic("sched: job needs a name and a process factory")
	}
	app, ok := s.appByName[j.Name]
	if !ok {
		app = s.classifier.AddApp(j.Name)
		s.appByName[j.Name] = app
	}
	js := &jobState{
		spec:   j,
		app:    app,
		state:  JobWaiting,
		slot:   s.table.Register(j.Name, comm.RoleBatch),
		core:   -1,
		domain: -1,
	}
	s.spans.NameTrack(s.track(js.slot), s.cfg.TrackPrefix+"job/"+j.Name)
	s.jobs = append(s.jobs, js)
	id := len(s.jobs) - 1
	if s.started {
		// start() seeds the queue from s.jobs; after it, each dynamic
		// submission pushes its own entry.
		s.queue.push(id)
	}
	return id
}

// track maps a comm slot to its span-recorder track id, shifted by the
// configured per-scheduler offset. Allocation-free.
func (s *Scheduler) track(slot *comm.Slot) int32 {
	return int32(slot.ID()) + s.cfg.TrackOffset
}

// Withdraw pulls a still-waiting job back out of the admission queue and
// reports whether it succeeded (false once the job is running or done).
// The fleet layer uses this for cross-machine migration of queued work:
// the withdrawn job is terminal here (JobWithdrawn) and is re-submitted,
// with a fresh process factory, to another machine's scheduler. Cold path:
// it records a decision and may allocate.
func (s *Scheduler) Withdraw(job int) bool {
	if job < 0 || job >= len(s.jobs) {
		panic(fmt.Sprintf("sched: withdraw of unknown job %d", job))
	}
	j := s.jobs[job]
	if j.state != JobWaiting || !s.started {
		return false
	}
	if !s.queue.remove(job) {
		return false
	}
	j.state = JobWithdrawn
	s.decisions = append(s.decisions, Decision{
		Period: s.period, Kind: DecisionWithdraw, Job: job, Name: j.spec.Name,
		From: -1, To: -1, Core: -1, Waited: j.waited, Queued: s.queue.len(),
	})
	return true
}

func (s *Scheduler) mustNotBeStarted() {
	if s.started {
		panic("sched: latency apps and jobs must be added before the first Step")
	}
}

//caer:cold one-time lazy deployment build inside the first Step, mirroring caer.Runtime.start
func (s *Scheduler) start() {
	if len(s.latency) == 0 {
		panic("sched: scheduler needs at least one latency-sensitive app")
	}
	domains := s.m.Domains()
	s.views = make([]View, domains)
	s.domDirective = make([]comm.Directive, domains)
	s.freeCount = make([]int, domains)
	s.domNeighborSlots = make([][]*comm.Slot, domains)
	s.coreBusy = make([]bool, s.m.Cores())
	for d := 0; d < domains; d++ {
		lo, hi := s.m.DomainCores(d)
		s.freeCount[d] = hi - lo
	}
	for i := range s.latency {
		la := &s.latency[i]
		s.coreBusy[la.core] = true
		s.freeCount[la.domain]--
		s.domNeighborSlots[la.domain] = append(s.domNeighborSlots[la.domain], la.slot)
	}
	if s.cfg.Response != ResponseThrottle {
		s.clusterers = make([]*Clusterer, domains)
		s.domPressure = make([]int, domains)
		s.wantMask = make([][]mem.WayMask, domains)
		s.appliedMask = make([][]mem.WayMask, domains)
		for d := 0; d < domains; d++ {
			if len(s.domNeighborSlots[d]) == 0 {
				continue // nothing to protect: the domain stays unpartitioned
			}
			h := s.m.DomainHierarchy(d)
			s.clusterers[d] = NewClusterer(h.L3().Ways(), s.cfg.Cluster)
			cores := h.Cores()
			s.wantMask[d] = make([]mem.WayMask, cores)
			s.appliedMask[d] = make([]mem.WayMask, cores)
			full := mem.FullMask(h.L3().Ways())
			for c := 0; c < cores; c++ {
				s.appliedMask[d][c] = full
			}
		}
		s.classScratch = make([]AppClass, s.m.Cores())
		s.coreScratch = make([]int, s.m.Cores())
	}
	s.queue = newJobQueue(len(s.jobs))
	for i := range s.jobs {
		s.queue.push(i)
	}
	s.started = true
}

// Step advances the deployment by one sampling period: run the machine,
// publish every latency app's sample, feed the classifier, tick every
// placed job's engine (combining directives per domain — all batch jobs in
// a domain react together, the paper's §3.2 scoped to the LLC they share),
// apply directives, retire finished jobs, and take admission and migration
// decisions.
func (s *Scheduler) Step() {
	if !s.started {
		s.start()
	}
	s.m.RunPeriod()
	telemetry.RunnerPeriods.Inc()
	s.period++
	s.table.BumpPeriod()
	s.observePeriod()
	s.tickEngines()
	s.applyDirectives()
	s.finishJobs()
	s.ageQueue()
	s.admit()
	s.maybeMigrate()
	s.applyPartitions()
	telemetry.SchedQueueDepth.Set(float64(s.queue.len()))
	running := 0
	for _, j := range s.jobs {
		if j.state == JobRunning {
			running++
		}
	}
	telemetry.SchedRunning.Set(float64(running))
}

// RunUntil steps until stop returns true or maxPeriods elapse, returning
// the number of periods executed.
func (s *Scheduler) RunUntil(stop func() bool, maxPeriods int) int {
	for i := 0; i < maxPeriods; i++ {
		if stop() {
			return i
		}
		s.Step()
	}
	return maxPeriods
}

// Done reports whether every submitted batch job has reached a terminal
// state: run to completion, or withdrawn by the fleet layer (the admission
// queue is drained either way). Latency apps are long-running services and
// do not gate completion; see LatencyReports for their lifecycle.
func (s *Scheduler) Done() bool {
	for _, j := range s.jobs {
		if j.state != JobDone && j.state != JobWithdrawn {
			return false
		}
	}
	return true
}

// observePeriod publishes every latency app's PMU sample and feeds the
// classifier. Allocation-free; runs every period.
func (s *Scheduler) observePeriod() {
	for i := range s.latency {
		la := &s.latency[i]
		la.mon.Tick()
		miss := float64(la.pmu.ReadDelta(pmu.EventLLCMisses))
		acc := float64(la.pmu.ReadDelta(pmu.EventLLCAccesses))
		s.classifier.Observe(la.app, miss, acc-miss)
		if la.donePeriod == 0 && la.proc.Done() {
			la.donePeriod = s.period
		}
	}
}

// tickEngines probes every running job's PMU, feeds the classifier,
// advances its engine, and combines directives per domain (any engine
// asserting pause pauses its whole domain's batch set). Allocation-free;
// runs every period.
func (s *Scheduler) tickEngines() {
	for d := range s.domDirective {
		s.domDirective[d] = comm.DirectiveRun
	}
	for _, j := range s.jobs {
		if j.state != JobRunning {
			continue
		}
		miss := float64(j.pmu.ReadDelta(pmu.EventLLCMisses))
		acc := float64(j.pmu.ReadDelta(pmu.EventLLCAccesses))
		j.missTotal += miss
		s.classifier.Observe(j.app, miss, acc-miss)
		if j.engine == nil {
			continue
		}
		if j.engine.Tick(miss) == comm.DirectivePause {
			s.domDirective[j.domain] = comm.DirectivePause
		}
		st := j.engine.Stats()
		if st.CPositive > j.lastPos {
			s.classifier.ObserveVerdict(j.app, true)
			j.lastPos = st.CPositive
		}
		if st.CNegative > j.lastNeg {
			s.classifier.ObserveVerdict(j.app, false)
			j.lastNeg = st.CNegative
		}
	}
}

// applyDirectives actuates each domain's combined directive on its running
// jobs' cores and slots. Under the pure partition response the directive
// never pauses anyone — contention verdicts move way-masks instead (see
// applyPartitions) and the batch set keeps running. Allocation-free; runs
// every period.
func (s *Scheduler) applyDirectives() {
	throttle := s.cfg.Response != ResponsePartition
	for _, j := range s.jobs {
		if j.state != JobRunning {
			continue
		}
		d := s.domDirective[j.domain]
		if !throttle {
			d = comm.DirectiveRun
		}
		s.m.Core(j.core).SetPaused(d == comm.DirectivePause)
		j.slot.SetDirective(d)
	}
}

// applyPartitions drives the LFOC-style partition response (DESIGN.md
// §16): per domain, fold this period's combined engine verdict into the
// confinement pressure, re-plan the cache clusters from the classifier's
// current classes, and apply any mask deltas to the domain's L3. The
// per-period path is allocation-free; actual resizes (rare) go through
// the cold resizePartition.
func (s *Scheduler) applyPartitions() {
	if s.cfg.Response == ResponseThrottle {
		return
	}
	for d, cl := range s.clusterers {
		if cl == nil {
			continue
		}
		if s.domDirective[d] == comm.DirectivePause {
			if s.domPressure[d] < cl.cfg.MaxPressure {
				s.domPressure[d]++
			}
		} else if s.domPressure[d] > 0 {
			s.domPressure[d]--
		}
		// Gather resident apps into the pre-sized scratches (indexed
		// writes, never growth: n is bounded by the core count).
		n := 0
		for i := range s.latency {
			la := &s.latency[i]
			if la.domain != d {
				continue
			}
			s.classScratch[n] = AppClass{Name: la.name, Latency: true,
				Aggressor: s.classifier.Aggressor(la.app), Sensitive: s.classifier.Sensitive(la.app)}
			s.coreScratch[n] = s.m.LocalCore(la.core)
			n++
		}
		for _, j := range s.jobs {
			if j.state != JobRunning || j.domain != d {
				continue
			}
			s.classScratch[n] = AppClass{Name: j.spec.Name,
				Aggressor: s.classifier.Aggressor(j.app), Sensitive: s.classifier.Sensitive(j.app)}
			s.coreScratch[n] = s.m.LocalCore(j.core)
			n++
		}
		classes, cores := s.classScratch[:n], s.coreScratch[:n]
		if cl.Rescore(classes, s.domPressure[d]) {
			telemetry.PartPlanChanges.Inc()
			plan := cl.Plan()
			telemetry.PartProtectedWays.Set(float64(plan.Protected.Count()))
			telemetry.PartConfinedWays.Set(float64(plan.Confined.Count()))
			telemetry.PartPressure.Set(float64(s.domPressure[d]))
		}
		plan := cl.Plan()
		want := s.wantMask[d]
		for lc := range want {
			want[lc] = plan.Default
		}
		for i := range classes {
			want[cores[i]] = plan.MaskFor(Classify(classes[i]))
		}
		for lc := range want {
			if want[lc] != s.appliedMask[d][lc] {
				s.resizePartition(d, lc, want[lc])
			}
		}
	}
}

// resizePartition applies one owner's new L3 way-mask, back-invalidating
// dropped lines under invalidate-mode resizes. Cold path: resizes are rare
// relative to periods and may allocate.
//
//caer:cold partition resize is control plane (DESIGN.md §16), reached only when a cluster plan changes
func (s *Scheduler) resizePartition(d, localCore int, mask mem.WayMask) {
	h := s.m.DomainHierarchy(d)
	dropped := h.SetL3OwnerMask(localCore, mask, s.cfg.Cluster.ResizeMode)
	s.appliedMask[d][localCore] = mask
	telemetry.PartResizes.Inc()
	if dropped > 0 {
		telemetry.PartInvalidations.Add(uint64(dropped))
	}
	if s.cfg.Cluster.ResizeMode == mem.ResizeOrphan {
		if n := h.L3().StrandedLines(localCore); n > 0 {
			telemetry.PartOrphans.Add(uint64(n))
		}
	}
}

// finishJobs retires jobs that ran to completion, releasing their cores.
//
//caer:cold decision path: records decisions, rebuilds engines and logs, allocating by documented design
func (s *Scheduler) finishJobs() {
	for i, j := range s.jobs {
		if j.state != JobRunning || !j.proc.Done() {
			continue
		}
		s.m.FlushCore(j.core)
		s.m.Unbind(j.core)
		s.m.Core(j.core).SetPaused(false)
		s.coreBusy[j.core] = false
		s.freeCount[j.domain]++
		j.state = JobDone
		j.done = s.period
		telemetry.SchedCompletions.Inc()
		residency := s.period - j.admitted
		if residency == 0 {
			residency = 1
		}
		s.spans.Record(s.track(j.slot), telemetry.SpanJob,
			j.admitted, uint32(residency), float64(j.migrations))
		s.decisions = append(s.decisions, Decision{
			Period: s.period, Kind: DecisionComplete, Job: i, Name: j.spec.Name,
			From: j.domain, To: -1, Core: j.core, Queued: s.queue.len(),
		})
	}
}

// ageQueue advances every waiting job's age. Allocation-free.
func (s *Scheduler) ageQueue() {
	for _, j := range s.jobs {
		if j.state == JobWaiting {
			j.waited++
		}
	}
}

// admit takes at most one *voluntary* admission decision per period
// (rate-bounding the placement churn): the queue head is placed by the
// policy, unless the chosen domain's predicted interference exceeds the
// admission threshold — then the whole FIFO waits for pressure to subside,
// up to the aging bound. Jobs past the aging bound are admitted regardless
// of the threshold AND regardless of the per-period rate limit, so aged
// jobs never queue behind one another: while a free core exists, no job
// waits past AgingBound (starvation avoidance).
func (s *Scheduler) admit() {
	admitted := 0
	for {
		head := s.queue.peek()
		if head < 0 {
			return
		}
		j := s.jobs[head]
		s.fillViews()
		aggr := s.classifier.Aggressiveness(j.app)
		d := s.placer.Place(aggr, s.views)
		if d < 0 {
			return // no free core anywhere: capacity-bound wait
		}
		aged := j.waited >= s.cfg.AgingBound
		if !aged && (admitted > 0 || interferenceScore(s.views[d], aggr) > s.cfg.AdmitThreshold) {
			if admitted == 0 {
				telemetry.SchedVetoes.Inc()
			}
			return // pressure too high where the policy would place us
		}
		s.admitTo(head, j, d, aged)
		admitted++
	}
}

// admitTo places queue head j on domain d and records the decision.
//
//caer:cold decision path: records decisions, rebuilds engines and logs, allocating by documented design
func (s *Scheduler) admitTo(head int, j *jobState, d int, aged bool) {
	s.queue.pop()
	core := s.findFreeCore(d)
	proc := j.spec.New()
	s.m.Bind(core, proc)
	j.proc = proc
	j.core = core
	j.domain = d
	j.state = JobRunning
	j.aged = aged
	j.admitted = s.period
	j.pmu = pmu.New(s.m, core)
	j.engine = s.newEngine(j, d)
	j.lastPos, j.lastNeg = 0, 0
	s.coreBusy[core] = true
	s.freeCount[d]--
	s.placer.Commit(d)
	if j.waited > s.maxWait {
		s.maxWait = j.waited
	}
	telemetry.SchedAdmissions.Inc()
	if aged {
		telemetry.SchedAgedBypasses.Inc()
	}
	if j.waited > 0 {
		s.spans.Record(s.track(j.slot), telemetry.SpanQueued,
			s.period-uint64(j.waited), uint32(j.waited), float64(s.queue.len()))
	}
	s.decisions = append(s.decisions, Decision{
		Period: s.period, Kind: DecisionAdmit, Job: head, Name: j.spec.Name,
		From: -1, To: d, Core: core, Waited: j.waited, Aged: aged, Queued: s.queue.len(),
	})
}

// newEngine builds a CAER engine for a job placed on domain d, or nil when
// the domain hosts no latency-sensitive app (nothing to protect there —
// the job runs unmanaged).
func (s *Scheduler) newEngine(j *jobState, d int) *caer.Engine {
	neighbors := s.domNeighborSlots[d]
	if len(neighbors) == 0 {
		return nil
	}
	eng := caer.NewEngine(
		s.cfg.Heuristic.NewDetector(s.cfg.Caer),
		s.cfg.Heuristic.NewResponder(s.cfg.Caer),
		j.slot, neighbors)
	eng.SetWatchdog(s.cfg.Caer.WatchdogPeriods)
	eng.SetSpans(s.spans, s.track(j.slot), s.cfg.TrackPrefix)
	return eng
}

// fillViews refreshes the per-domain placement views. Allocation-free;
// runs whenever a placement or migration decision is evaluated.
func (s *Scheduler) fillViews() {
	for d := range s.views {
		s.views[d] = View{FreeCores: s.freeCount[d]}
	}
	for i := range s.latency {
		la := &s.latency[i]
		s.views[la.domain].Sensitivity += s.classifier.Sensitivity(la.app)
		p := la.slot.WindowMean()
		s.views[la.domain].Pressure += p / (p + s.cfg.PressureScale)
	}
	for _, j := range s.jobs {
		if j.state == JobRunning {
			s.views[j.domain].BatchLoad += s.classifier.Aggressiveness(j.app)
		}
	}
}

// maybeMigrate evaluates bounded-rate migration: every MigrationPeriod
// periods, the single running job whose move to another domain improves
// predicted interference the most — by at least MigrationMargin — is
// re-placed there. The job's process survives the move; its caches start
// cold on the new domain (the realistic migration cost).
//
//caer:cold decision path: records decisions, rebuilds engines and logs, allocating by documented design
func (s *Scheduler) maybeMigrate() {
	if s.cfg.MigrationPeriod <= 0 || s.period%uint64(s.cfg.MigrationPeriod) != 0 {
		return
	}
	s.fillViews()
	bestJob, bestTo := -1, -1
	var bestGain float64
	for i, j := range s.jobs {
		if j.state != JobRunning {
			continue
		}
		aggr := s.classifier.Aggressiveness(j.app)
		// Score the job's current domain without its own batch-load
		// contribution, so staying put isn't penalized for its own weight.
		from := s.views[j.domain]
		from.BatchLoad -= aggr
		cur := interferenceScore(from, aggr)
		for d := range s.views {
			if d == j.domain || s.views[d].FreeCores == 0 {
				continue
			}
			gain := cur - interferenceScore(s.views[d], aggr)
			if gain > bestGain {
				bestJob, bestTo, bestGain = i, d, gain
			}
		}
	}
	if bestJob < 0 || bestGain < s.cfg.MigrationMargin {
		return
	}
	j := s.jobs[bestJob]
	oldCore, oldDomain := j.core, j.domain
	s.m.FlushCore(oldCore)
	s.m.Unbind(oldCore)
	s.m.Core(oldCore).SetPaused(false)
	s.coreBusy[oldCore] = false
	s.freeCount[oldDomain]++
	if j.engine != nil {
		st := j.engine.Stats()
		s.accumulate(j, st)
	}
	core := s.findFreeCore(bestTo)
	s.m.Bind(core, j.proc)
	j.core = core
	j.domain = bestTo
	j.pmu = pmu.New(s.m, core)
	j.engine = s.newEngine(j, bestTo)
	j.lastPos, j.lastNeg = 0, 0
	j.migrations++
	s.coreBusy[core] = true
	s.freeCount[bestTo]--
	s.migrations++
	telemetry.SchedMigrations.Inc()
	s.decisions = append(s.decisions, Decision{
		Period: s.period, Kind: DecisionMigrate, Job: bestJob, Name: j.spec.Name,
		From: oldDomain, To: bestTo, Core: core, Queued: s.queue.len(),
	})
}

// accumulate folds an abandoned engine's counters into the job's totals.
func (s *Scheduler) accumulate(j *jobState, st caer.EngineStats) {
	j.accStats.Periods += st.Periods
	j.accStats.PausedPeriods += st.PausedPeriods
	j.accStats.RunPeriods += st.RunPeriods
	j.accStats.CPositive += st.CPositive
	j.accStats.CNegative += st.CNegative
	j.accStats.DetectionTicks += st.DetectionTicks
	j.accStats.HoldTicks += st.HoldTicks
	j.accStats.DegradedTicks += st.DegradedTicks
	j.accStats.WatchdogTrips += st.WatchdogTrips
}

// findFreeCore returns a free core of domain d; it panics if the domain's
// free-core accounting is corrupt.
func (s *Scheduler) findFreeCore(d int) int {
	lo, hi := s.m.DomainCores(d)
	for c := lo; c < hi; c++ {
		if !s.coreBusy[c] {
			return c
		}
	}
	panic(fmt.Sprintf("sched: domain %d has no free core despite freeCount %d", d, s.freeCount[d]))
}

// JobReport is one job's lifecycle summary.
type JobReport struct {
	Name         string
	State        JobState
	Domain, Core int
	Waited       int
	Aged         bool
	Admitted     uint64 // 1-based period; 0 = never admitted
	Done         uint64 // 1-based period; 0 = not finished
	Migrations   int

	// Instructions and Misses are the job process's lifetime totals (as
	// observed by the scheduler's per-job probe; 0 before admission).
	Instructions uint64
	Misses       uint64

	// Engine decision counters summed over every engine the job ran
	// under (it gets a fresh engine per migration).
	PausedPeriods, RunPeriods uint64
	CPositive, CNegative      uint64
}

// JobReports returns every job's summary in submission order.
func (s *Scheduler) JobReports() []JobReport {
	out := make([]JobReport, len(s.jobs))
	for i, j := range s.jobs {
		r := JobReport{
			Name: j.spec.Name, State: j.state, Domain: j.domain, Core: j.core,
			Waited: j.waited, Aged: j.aged, Admitted: j.admitted, Done: j.done,
			Migrations:    j.migrations,
			PausedPeriods: j.accStats.PausedPeriods, RunPeriods: j.accStats.RunPeriods,
			CPositive: j.accStats.CPositive, CNegative: j.accStats.CNegative,
			Misses: uint64(j.missTotal),
		}
		if j.proc != nil {
			r.Instructions = j.proc.Retired()
		}
		if j.engine != nil {
			st := j.engine.Stats()
			r.PausedPeriods += st.PausedPeriods
			r.RunPeriods += st.RunPeriods
			r.CPositive += st.CPositive
			r.CNegative += st.CNegative
		}
		out[i] = r
	}
	return out
}

// LatencyReport is one latency-sensitive app's summary.
type LatencyReport struct {
	Name   string
	Core   int
	Domain int
	App    int    // classifier id
	Done   uint64 // 1-based completion period; 0 = still running
}

// LatencyReports returns every latency app's summary in registration
// order.
func (s *Scheduler) LatencyReports() []LatencyReport {
	out := make([]LatencyReport, len(s.latency))
	for i := range s.latency {
		la := &s.latency[i]
		out[i] = LatencyReport{Name: la.name, Core: la.core, Domain: la.domain, App: la.app, Done: la.donePeriod}
	}
	return out
}
