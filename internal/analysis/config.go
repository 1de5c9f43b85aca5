package analysis

import (
	"go/types"
	"strings"
)

// Config parameterises the analyzers with the repo-specific inventories
// they check against. Entries use dotted keys built from the *last element*
// of the import path, so "comm.Slot.Publish" matches caer/internal/comm as
// well as a testdata package named comm.
//
//   - "Type.Method" matches the method on any package's Type.
//   - "pkg.Type.Method" additionally pins the package.
//   - "pkg.Func" / "Func" match package-level functions.
type Config struct {
	// ModulePath is the import path of the module under analysis; set by
	// Vet. lockdiscipline scopes its error-discard rule to functions
	// declared inside this module.
	ModulePath string

	// CommPackages lists final import-path elements treated as the
	// communication-table package (shared-memory owner).
	CommPackages []string

	// HotPathFuncs lists the per-period sampling/detection functions that
	// must stay allocation- and syscall-light (paper §6: <1% overhead).
	HotPathFuncs []string

	// AllocFuncs lists snapshot/copy APIs that allocate by contract and are
	// therefore banned inside hot-path functions.
	AllocFuncs []string

	// EnumTypes lists "pkg.Type" enums whose switches must be exhaustive.
	EnumTypes []string

	// EnumIgnorePrefixes lists constant-name prefixes excluded from
	// exhaustiveness (count sentinels like numEvents).
	EnumIgnorePrefixes []string

	// ColdFuncs are reviewed call-graph barriers: hot-path propagation
	// (CallGraph.HotSet) stops at these functions. Each entry marks a
	// function that a hot root calls but that is, by documented design,
	// off the per-period budget — one-time lazy setup, per-batch pool
	// handoff, or decision paths that rebuild state. Adding an entry is a
	// reviewed act, exactly like adding a //caer:allow.
	ColdFuncs []string

	// DeterministicPkgs lists final import-path elements whose entire
	// package must be bit-reproducible: the simulation core the byte-
	// identity gates (DESIGN.md §6, §11) depend on.
	DeterministicPkgs []string

	// DeterministicFuncs lists individual result-assembly functions
	// (dotted keys like HotPathFuncs) held to the same determinism rules
	// in packages that are otherwise free to read clocks — experiment
	// report paths and telemetry exporters whose output is diffed.
	DeterministicFuncs []string

	// MetricNames is the telemetry family inventory (DESIGN.md §10's
	// registry table): every name passed to a telemetry registration
	// call must appear here, so the spine and the docs cannot drift.
	MetricNames []string

	// ReportUnusedSuppressions turns stale //caer:allow comments into
	// findings (the -unused-suppressions flag; on in CI).
	ReportUnusedSuppressions bool
}

// DefaultConfig returns the inventory for this repository: the CAER hot
// path (engine/monitor ticks, detector steps, responder reactions, table
// publish/read), the reaction enums, and the comm shared-memory package.
func DefaultConfig() *Config {
	return &Config{
		CommPackages: []string{"comm"},
		HotPathFuncs: []string{
			// Engine: per-period detect/respond state machine (Figure 5).
			"caer.Engine.Tick", "caer.Engine.finishTick",
			"caer.Engine.OwnMean", "caer.Engine.NeighborMean", "caer.Engine.LastNeighbor",
			// CAER-M monitor probe (TickSpan is the span-normalizing core
			// Tick delegates to).
			"caer.Monitor.Tick", "caer.Monitor.TickSpan",
			// Detection heuristics (Algorithms 1 and 2).
			"caer.ShutterDetector.Step", "caer.RuleDetector.Step",
			"caer.RandomDetector.Step", "caer.HybridDetector.Step",
			// Responses (§5).
			"caer.RedLightGreenLight.React", "caer.RedLightGreenLight.Hold",
			"caer.SoftLock.React", "caer.SoftLock.Hold",
			// Bounded decision log, appended every verdict.
			"caer.EventLog.Append",
			// Whole-deployment period step plus its sampling-schedule
			// helpers: the probe pipeline, the schedule advance, the quiet
			// check, and the cadence declaration all run inside Step.
			"caer.Runtime.Step", "caer.Runtime.probe", "caer.Runtime.afterProbe",
			"caer.Runtime.quiet", "caer.Runtime.declareCadence",
			"caer.Runtime.sleep", "caer.Runtime.wake",
			// Adaptive-sampling interval controller, folded in per probe.
			"caer.IntervalController.Observe", "caer.IntervalController.Interval",
			"caer.Engine.Idle",
			// Communication table publish/read (Figure 4), plus the per-period
			// liveness protocol the engine watchdog consumes.
			"comm.Slot.Publish", "comm.Slot.PublishWithCadence",
			"comm.Slot.DeclareCadence",
			"comm.Slot.Directive", "comm.Slot.SetDirective",
			"comm.Slot.LastSample", "comm.Slot.WindowMean",
			"comm.Slot.Seq", "comm.Slot.StalePeriods",
			"comm.Table.BroadcastDirective", "comm.Table.BumpPeriod",
			"comm.ShmTable.Publish", "comm.ShmTable.PublishCadence",
			"comm.ShmTable.DeclareCadence", "comm.ShmTable.WindowMean",
			"comm.ShmTable.DirectiveOf", "comm.ShmTable.SetDirective",
			"comm.ShmTable.Published",
			"comm.ShmTable.StalePeriods", "comm.ShmTable.BumpPeriod",
			// Watchdog staleness scan, run every engine tick.
			"caer.Engine.maxNeighborStale",
			// Sliding-window primitives consumed every period.
			"stats.Window.Push", "stats.Window.Mean", "stats.Window.MeanRange",
			"stats.Window.At", "stats.Window.Last",
			// PMU read-and-restart probes, the per-period sampler sweep, and
			// the interrupt-mode threshold check (one per sleeping period).
			"pmu.PMU.ReadDelta", "pmu.PMU.Peek", "pmu.Sampler.Probe",
			"pmu.Threshold.Check",
			// Simulated hardware counter read feeding the PMU.
			"machine.Machine.ReadCounter",
			// Machine period loop: the cycle-stepping core every mode drives.
			// dispatch/domainWorker are deliberately NOT inventoried — the
			// pool's channel handoff is paid once per batch, not per access.
			"machine.Machine.RunPeriod", "machine.Machine.RunPeriods",
			"machine.Machine.stepDomain", "machine.Machine.runSlice",
			// Memory-hierarchy access path, executed per simulated reference
			// (the profiler's top of the whole simulator).
			"mem.Cache.Lookup", "mem.Cache.Insert", "mem.Cache.Refresh",
			"mem.Cache.Invalidate", "mem.Cache.Contains",
			"mem.Hierarchy.Access", "mem.MainMemory.Access",
			"mem.lruPolicy.Touch", "mem.lruPolicy.Victim",
			// Partition-aware victim path (DESIGN.md §16): the per-owner
			// mask lookup runs on every Insert, confined victim scans on
			// every confined miss, and the mask helpers they call.
			"mem.Cache.maskOf", "mem.lruPolicy.VictimMask",
			"mem.plruPolicy.VictimMask", "mem.plruPolicy.Victim",
			"mem.randomPolicy.VictimMask",
			"mem.WayMask.Has", "mem.WayMask.Count", "mem.WayMask.NthWay",
			// Contention classifier: per-period profile updates and the
			// score reads the placement scorer calls per queue decision.
			"sched.Classifier.Observe", "sched.Classifier.ObserveVerdict",
			"sched.Classifier.Aggressiveness", "sched.Classifier.Sensitivity",
			// Scheduler per-period loop. Decision-taking paths (admitTo,
			// finishJobs, maybeMigrate) record decisions and rebuild
			// engines — they allocate by design and are NOT hot.
			"sched.Scheduler.Step", "sched.Scheduler.observePeriod",
			"sched.Scheduler.tickEngines", "sched.Scheduler.applyDirectives",
			"sched.Scheduler.fillViews", "sched.Scheduler.ageQueue",
			// Partition response per-period loop (DESIGN.md §16): the
			// verdict-pressure fold, allocation-free cluster re-score, and
			// want/applied mask reconciliation. The actual resize
			// (resizePartition) is the documented cold barrier.
			"sched.Scheduler.applyPartitions", "sched.Clusterer.Rescore",
			"sched.PlanClusters", "sched.Classify", "sched.ClusterPlan.MaskFor",
			// Per-core partition actuator for plain CAER deployments: the
			// steady state is one compare per directive re-application.
			"caer.PartitionActuator.Actuate",
			// Telemetry spine: the pre-registered handles every hot function
			// above calls into, plus the span recorder. They must stay pure
			// atomics — the observability layer cannot be allowed to perturb
			// the 1 ms loop it reports on.
			"telemetry.Counter.Inc", "telemetry.Counter.Add",
			"telemetry.Gauge.Set", "telemetry.Histogram.Observe",
			"telemetry.SpanRecorder.Record",
			// Engine span-closing helpers, called from Tick every period.
			"caer.Engine.recordHoldSpan", "caer.Engine.recordShutterSpan",
			// Fleet per-period loop (DESIGN.md §14): the cluster tick, the
			// bounded dispatch scan, the placement-view refresh, the
			// completion harvest, and the drain check. Arrival
			// materialization, dispatch commit, migration, and request
			// relaunch are the documented cold barriers.
			"fleet.Cluster.Tick", "fleet.Cluster.dispatch",
			"fleet.Cluster.fillViews", "fleet.Cluster.harvest",
			"fleet.Cluster.Done",
			// Cross-machine placers, invoked once per dispatch attempt.
			"fleet.roundRobinPlacer.Place", "fleet.leastPressurePlacer.Place",
			"fleet.packedPlacer.Place", "fleet.interferenceScore",
			"fleet.NodeView.eligible",
			// Open-loop traffic driver, sampled every fleet tick.
			"fleet.driver.rate", "fleet.driver.arrivals", "fleet.driver.exhausted",
			// Fleet admission-queue ring ops on the dispatch path.
			"fleet.fifo.len", "fleet.fifo.peek", "fleet.fifo.pop",
			// Scheduler accessors the fleet loop polls every period: the
			// in-place classifier summary refill and the per-job state
			// reads behind harvest.
			"sched.Scheduler.Summarize", "sched.Scheduler.QueueLen",
			"sched.Scheduler.JobStateOf", "sched.Scheduler.JobAdmittedPeriod",
			"sched.Scheduler.AppAggressiveness",
			// Mergeable-histogram accumulation on the harvest path.
			"stats.Histogram.Add",
			// Time-series ring: the per-period sample sweep and the windowed
			// queries the SLO engine runs every evaluation (DESIGN.md §15).
			// Ring growth (extend) is the documented amortized cold barrier.
			"telemetry.Series.Sample", "telemetry.Series.sampleTrack",
			"telemetry.Series.clampWindow",
			"telemetry.Series.RateAt", "telemetry.Series.Rate",
			"telemetry.Series.MeanAt", "telemetry.Series.Mean",
			"telemetry.Series.OverShareAt", "telemetry.Series.OverShare",
			// SLO burn-rate engine, evaluated once per node tick.
			"slo.Engine.Evaluate", "slo.Engine.step", "slo.burnAt",
			// Per-tick node telemetry sync (series sample + SLO eval) and the
			// metrics-fed placer's scoring path.
			"fleet.Node.syncTelemetry", "fleet.Cluster.fillTelViews",
			"fleet.telState.fresh", "fleet.telemetryPlacer.Place",
			"fleet.telemetryScore",
			// Scheduler accessors the node telemetry sync polls per period.
			"sched.Scheduler.LatencySignals", "sched.Scheduler.DegradedTicks",
			"sched.Scheduler.LatencyApps",
		},
		AllocFuncs: []string{
			"Slot.Samples", "ShmTable.Samples", "Window.Snapshot",
			"Table.Slots", "Table.SlotsByRole", "EventLog.Events",
			"SpanRecorder.Spans", "SpanRecorder.ChromeEvents",
			"Registry.WritePrometheus", "Histogram.Snapshot",
			"Series.Tracks", "Series.WindowHistogramAt",
			"Series.QuantileOverAt", "Series.QuantileOver",
			"Series.WriteDump",
		},
		EnumTypes: []string{
			"comm.Directive", "comm.Role",
			"caer.Verdict", "caer.HeuristicKind", "caer.EventKind",
			"caer.SamplingMode",
			"pmu.Event", "runner.Mode", "spec.Sensitivity",
			"experiments.FaultKind",
			"sched.Policy", "sched.JobState", "sched.DecisionKind",
			"sched.ResponseKind", "sched.ClusterKind", "mem.ResizeMode",
			"fleet.Policy", "fleet.JobState", "fleet.Curve",
			"fleet.DecisionKind",
			"slo.ObjectiveKind", "slo.AlertState",
			"telemetry.MetricKind", "telemetry.SpanKind",
			"analysis.EdgeKind",
		},
		EnumIgnorePrefixes: []string{"num"},
		ColdFuncs: []string{
			// One-time lazy deployment build inside the first Step; every
			// period after it is a cheap started-flag check.
			"caer.Runtime.start",
			// Worker-pool handoff: the channel ops are the price of
			// domain parallelism, paid once per dispatched batch of
			// periods, not per memory access (DESIGN.md §11).
			"machine.Machine.dispatch", "machine.Machine.domainWorker",
			// One-time lazy deployment build inside the scheduler's first
			// Step, mirroring caer.Runtime.start.
			"sched.Scheduler.start",
			// Scheduler decision paths: they record decisions, rebuild
			// engines, and log — allocating by documented design; the
			// per-period observe/tick/apply loop around them is hot.
			"sched.Scheduler.admitTo", "sched.Scheduler.finishJobs",
			"sched.Scheduler.maybeMigrate",
			// Fleet barriers mirroring sched's one level up: arrival
			// materializes job records, the dispatch commit registers a comm
			// slot and names a span track, migration withdraws and
			// re-dispatches, and the request relaunch reseeds the service
			// process — all allocating by documented design (fleet.go's
			// hot/cold split).
			"fleet.Cluster.arrive", "fleet.Cluster.dispatchTo",
			"fleet.Cluster.maybeMigrate", "fleet.Cluster.finishRequest",
			// Amortized scrape barrier: runs once every ScrapePeriod ticks
			// and parses/derives whole text snapshots by documented design
			// (DESIGN.md §15's pull model); the per-tick loop around it is
			// hot.
			"fleet.Cluster.scrapeAll",
			// Series ring growth: amortized doubling when a registry gains
			// tracks, never on the steady-state sample path.
			"telemetry.Series.extend",
			// Partition resizes are control-plane operations (DESIGN.md
			// §16): mask installation walks the whole cache in invalidate
			// mode and may allocate the dropped-line slice; the per-period
			// loop only reaches them when a cluster plan actually changes.
			"mem.Cache.SetOwnerMask", "mem.Cache.StrandedLines",
			"mem.Hierarchy.SetL3OwnerMask",
			"sched.Scheduler.resizePartition",
			"caer.PartitionActuator.resize",
		},
		DeterministicPkgs: []string{"machine", "mem", "sched", "caer", "fleet"},
		DeterministicFuncs: []string{
			// Telemetry exporters whose output lands in diffed artifacts.
			"telemetry.SpanRecorder.ChromeEvents",
			// Experiment result assembly feeding the BENCH_*.json byte-identity
			// gates (DESIGN.md §11): every registered regime's table and
			// artifact writer, and the shared encoder they call.
			"experiments.ChaosRegime.Render", "experiments.ChaosRegime.WriteJSON",
			"experiments.SchedRegime.Table", "experiments.SchedRegime.WriteJSON",
			"experiments.SamplingReport.Table", "experiments.SamplingReport.WriteJSON",
			"experiments.FleetRegime.Table", "experiments.FleetRegime.WriteJSON",
			"experiments.SLORegime.Table", "experiments.SLORegime.WriteJSON",
			"experiments.PartitionRegime.Table", "experiments.PartitionRegime.WriteJSON",
			"experiments.writeJSON",
		},
		MetricNames: []string{
			"caer_pmu_reads_total", "caer_pmu_rearms_total", "caer_pmu_probes_total",
			"caer_pmu_probes_skipped_total", "caer_pmu_trigger_fires_total",
			"caer_pmu_faults_total",
			"caer_comm_publishes_total", "caer_comm_broadcasts_total",
			"caer_comm_staleness_periods", "caer_comm_period",
			"caer_engine_ticks_total", "caer_engine_verdicts_total",
			"caer_engine_holds_total", "caer_engine_hold_periods",
			"caer_engine_directive_changes_total", "caer_engine_paused_periods_total",
			"caer_engine_watchdog_trips_total", "caer_engine_degraded_ticks_total",
			"caer_engine_log_dropped_total",
			"caer_engine_mode", "caer_sampling_interval",
			"caer_core_pressure", "caer_core_directive", "caer_core_degraded",
			"caer_sched_admissions_total", "caer_sched_aged_bypasses_total",
			"caer_sched_vetoes_total", "caer_sched_migrations_total",
			"caer_sched_completions_total", "caer_sched_class_flips_total",
			"caer_sched_queue_depth", "caer_sched_running",
			"caer_part_plans_total", "caer_part_resizes_total",
			"caer_part_lines_invalidated_total", "caer_part_orphans_total",
			"caer_part_protected_ways", "caer_part_confined_ways",
			"caer_part_pressure",
			"caer_runner_runs_total", "caer_runner_relaunches_total",
			"caer_runner_periods_total",
			"caer_telemetry_ops_total", "caer_telemetry_spans_total",
			"caer_telemetry_spans_dropped_total",
			"caer_fleet_ticks_total", "caer_fleet_arrivals_total",
			"caer_fleet_dispatches_total", "caer_fleet_migrations_total",
			"caer_fleet_completions_total", "caer_fleet_requests_total",
			"caer_fleet_queue_depth",
			"caer_fleet_node_dispatches_total", "caer_fleet_node_completions_total",
			"caer_fleet_node_withdrawals_total", "caer_fleet_node_queue_depth",
			"caer_fleet_node_sojourn_periods",
			"caer_fleet_node_free_cores", "caer_fleet_node_sensitivity",
			"caer_fleet_node_batch_load", "caer_fleet_node_degraded_ticks_total",
			"caer_fleet_request_latency_periods",
			"caer_series_samples_total", "caer_series_tracks",
			"caer_slo_state", "caer_slo_burn_fast", "caer_slo_burn_slow",
			"caer_slo_alerts_total", "caer_slo_evals_total",
		},
	}
}

// pkgBase returns the last element of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// IsCommPackage reports whether the import path is a communication-table
// package.
func (c *Config) IsCommPackage(path string) bool {
	base := pkgBase(path)
	for _, p := range c.CommPackages {
		if base == p {
			return true
		}
	}
	return false
}

// matchList reports whether any candidate key appears in list.
func matchList(list []string, candidates ...string) bool {
	for _, e := range list {
		for _, cand := range candidates {
			if e == cand {
				return true
			}
		}
	}
	return false
}

// funcKeys builds the dotted match keys for a function: with a receiver
// type name the keys are "pkg.Type.Name" and "Type.Name", otherwise
// "pkg.Name" and "Name".
func funcKeys(pkgPath, recv, name string) []string {
	base := pkgBase(pkgPath)
	if recv != "" {
		return []string{base + "." + recv + "." + name, recv + "." + name}
	}
	return []string{base + "." + name, name}
}

// IsHotPathFunc reports whether the (package, receiver type, name) triple
// names a hot-path function.
func (c *Config) IsHotPathFunc(pkgPath, recv, name string) bool {
	return matchList(c.HotPathFuncs, funcKeys(pkgPath, recv, name)...)
}

// IsAllocFunc reports whether the function is a known allocating
// snapshot/copy API.
func (c *Config) IsAllocFunc(pkgPath, recv, name string) bool {
	return matchList(c.AllocFuncs, funcKeys(pkgPath, recv, name)...)
}

// IsColdFunc reports whether the function is a reviewed hot-path
// propagation barrier.
func (c *Config) IsColdFunc(pkgPath, recv, name string) bool {
	return matchList(c.ColdFuncs, funcKeys(pkgPath, recv, name)...)
}

// IsDeterministicPkg reports whether the whole package is held to the
// determinism rules.
func (c *Config) IsDeterministicPkg(pkgPath string) bool {
	base := pkgBase(pkgPath)
	for _, p := range c.DeterministicPkgs {
		if base == p {
			return true
		}
	}
	return false
}

// IsDeterministicFunc reports whether the individual function is held to
// the determinism rules.
func (c *Config) IsDeterministicFunc(pkgPath, recv, name string) bool {
	return matchList(c.DeterministicFuncs, funcKeys(pkgPath, recv, name)...)
}

// IsMetricName reports whether a telemetry family name is in the spine
// inventory.
func (c *Config) IsMetricName(name string) bool {
	for _, n := range c.MetricNames {
		if n == name {
			return true
		}
	}
	return false
}

// IsEnumType reports whether the named type is one of the
// exhaustiveness-checked enums.
func (c *Config) IsEnumType(pkgPath, name string) bool {
	return matchList(c.EnumTypes, pkgBase(pkgPath)+"."+name, name)
}

// isSentinelConst reports whether a constant name is a count sentinel
// excluded from exhaustiveness.
func (c *Config) isSentinelConst(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range c.EnumIgnorePrefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

// InModule reports whether a package path belongs to the analyzed module.
func (c *Config) InModule(pkgPath string) bool {
	return c.ModulePath != "" &&
		(pkgPath == c.ModulePath || strings.HasPrefix(pkgPath, c.ModulePath+"/"))
}

// recvTypeName extracts the bare receiver type name of a method
// declaration ("Engine" from func (e *Engine) Tick...), or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
