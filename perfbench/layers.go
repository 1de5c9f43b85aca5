package main

// Per-layer metrics: work counts read after a round through the layers'
// public getters, and host time attributed to layers by the traced round.

import (
	"fmt"
	"time"

	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/telemetry"
)

// memCounts sums the memory model's counters over hierarchies.
type memCounts struct {
	l1, l2, l3        mem.CacheStats
	backInvalidations uint64
	channelAccesses   uint64
	channelQueued     uint64
}

func addStats(a *mem.CacheStats, b mem.CacheStats) {
	a.Accesses += b.Accesses
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.CrossEvictions += b.CrossEvictions
	a.Writebacks += b.Writebacks
	a.Invalidations += b.Invalidations
}

func (c *memCounts) addPrivate(l1, l2 mem.CacheStats) {
	addStats(&c.l1, l1)
	addStats(&c.l2, l2)
	c.backInvalidations += l1.Invalidations + l2.Invalidations
}

func (c *memCounts) addHierarchy(h *mem.Hierarchy) {
	for core := 0; core < h.Cores(); core++ {
		c.addPrivate(h.L1(core).Stats(), h.L2(core).Stats())
	}
	addStats(&c.l3, h.L3().Stats())
	c.channelAccesses += h.Memory().Accesses()
	c.channelQueued += h.Memory().QueuedCycles()
}

func (c *memCounts) emit(out *metrics) {
	out.set("mem.l1_hit_rate", "ratio", c.l1.HitRate())
	out.set("mem.l2_hit_rate", "ratio", c.l2.HitRate())
	out.set("mem.l3_hit_rate", "ratio", c.l3.HitRate())
	out.set("mem.l3_misses", "count", float64(c.l3.Misses))
	out.set("mem.l3_evictions", "count", float64(c.l3.Evictions))
	out.set("mem.l3_cross_evictions", "count", float64(c.l3.CrossEvictions))
	out.set("mem.back_invalidations", "count", float64(c.backInvalidations))
	out.set("mem.writebacks", "count", float64(c.l3.Writebacks))
	out.set("mem.channel_accesses", "count", float64(c.channelAccesses))
	out.set("mem.channel_queued_cycles", "cycles", float64(c.channelQueued))
	out.note("mem.channel_queued_cycles", "simulated")
	// Every reference probes its core's L1 exactly once.
	out.set("workload.refs", "count", float64(c.l1.Accesses))
}

// caerCounts are the detection pipeline's simulated work counts.
type caerCounts struct {
	probes, skipped, cPositive, cNegative, paused uint64
}

func (c caerCounts) emit(out *metrics) {
	out.set("caer.probe_periods", "count", float64(c.probes))
	out.set("caer.skipped_periods", "count", float64(c.skipped))
	out.set("caer.c_positive", "count", float64(c.cPositive))
	out.set("caer.c_negative", "count", float64(c.cNegative))
	out.set("caer.paused_periods", "count", float64(c.paused))
}

// schedCounts are the placement layers' counts; zero where they do not run.
type schedCounts struct {
	migrations, maxWait, degraded        float64
	dispatched, fleetMigrations, waitP90 float64
}

func (c schedCounts) emit(out *metrics) {
	out.set("sched.migrations", "count", c.migrations)
	out.set("sched.max_wait_periods", "periods", c.maxWait)
	out.set("sched.degraded_ticks", "count", c.degraded)
	out.set("fleet.dispatched", "count", c.dispatched)
	out.set("fleet.migrations", "count", c.fleetMigrations)
	out.set("fleet.wait_p90_periods", "periods", c.waitP90)
}

// emitCPUShares reports the sampled profile's per-layer shares.
func emitCPUShares(out *metrics, shares map[string]float64, samples int64) {
	for _, l := range profileLayers {
		if l == "other" {
			continue
		}
		out.set(l+".cpu_share", "ratio", shares[l])
		out.note(l+".cpu_share", fmt.Sprintf("sampled, %d samples", samples))
	}
}

// pairBench adapts a pair workload to benchWorkload.
type pairBench struct{ w *pairWorkload }

func (b pairBench) name() string { return b.w.name }
func (b pairBench) setup()       { b.w.setup() }

func (b pairBench) round(tm *stepTimer, _ bool) outcome { return b.outcome(b.w.round(tm)) }

func (b pairBench) outcome(rd *pairRound) outcome {
	return outcome{
		digest:    rd.digest,
		ops:       rd.ops,
		errs:      rd.errs,
		simulated: func(out *metrics) error { return b.w.simulated(rd, out) },
		counts:    func(out *metrics) { pairCounts(rd, out) },
	}
}

func pairCounts(rd *pairRound, out *metrics) {
	var mc memCounts
	var cc caerCounts
	var instr uint64
	for _, r := range rd.results {
		for c := 0; c < 2; c++ {
			mc.addPrivate(r.l1[c], r.l2[c])
			instr += r.instr[c]
		}
		addStats(&mc.l3, r.l3)
		mc.channelAccesses += r.memAcc
		mc.channelQueued += r.memQueued
		cc.probes += r.sampling.ProbePeriods
		cc.skipped += r.sampling.SkippedPeriods
		cc.cPositive += r.engine.CPositive
		cc.cNegative += r.engine.CNegative
		cc.paused += r.engine.PausedPeriods
	}
	mc.emit(out)
	out.set("machine.instructions", "count", float64(instr))
	cc.emit(out)
	schedCounts{}.emit(out)
}

// tracedRound runs the record-and-replay round. The replayed layer times
// and the machine's residual sum to the traced period time by
// construction; the residual is what no replay accounts for.
func (b pairBench) tracedRound(tm *stepTimer, out *metrics) (outcome, error) {
	prof := &profiler{}
	rd, lt, err := b.w.tracedRound(tm, prof)
	if err != nil {
		return outcome{}, err
	}
	shares, samples, err := prof.fold()
	if err != nil {
		return outcome{}, err
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	traced := ns(lt.traced)
	self := traced - ns(lt.mem) - ns(lt.gen) - ns(lt.ca)
	out.set("mem.ns_per_access", "ns", ns(lt.mem)/float64(lt.refs))
	out.set("mem.share", "ratio", ns(lt.mem)/traced)
	out.set("workload.ns_per_ref", "ns", ns(lt.gen)/float64(lt.refs))
	out.set("workload.share", "ratio", ns(lt.gen)/traced)
	out.set("machine.self_ns_per_period", "ns", self/float64(lt.periods))
	out.set("machine.share", "ratio", self/traced)
	out.set("pmu.reads", "count", float64(lt.pmuReads))
	out.set("pmu.ns_per_read", "ns", median(lt.pmuNs))
	out.set("caer.ns_per_tick", "ns", ns(lt.ca)/float64(lt.colocated))
	out.set("caer.share", "ratio", ns(lt.ca)/traced)
	out.note("caer.share", "pmu+comm+caer")
	emitCPUShares(out, shares, samples)
	out.note("machine.share", fmt.Sprintf("residual; mem %.1f + workload %.1f + caer %.1f + machine %.1f = traced %.1f ms",
		ns(lt.mem)/1e6, ns(lt.gen)/1e6, ns(lt.ca)/1e6, self/1e6, traced/1e6))
	return b.outcome(rd), nil
}

// fleetBench adapts the fleet workload to benchWorkload.
type fleetBench struct{ w *fleetWorkload }

func (b fleetBench) name() string { return "fleet_partition" }
func (b fleetBench) setup()       { b.w.setup() }

// round runs the fleet; the reference round steps each machine's domains
// serially, so the determinism check compares worker counts 1 and 2.
func (b fleetBench) round(tm *stepTimer, reference bool) outcome {
	workers := fleetWorkers
	if reference {
		workers = 1
	}
	return b.outcome(b.w.round(tm, workers))
}

func (b fleetBench) outcome(rd *fleetRound) outcome {
	return outcome{
		digest:    rd.digest,
		ops:       rd.ops,
		errs:      rd.errs,
		simulated: func(out *metrics) error { return b.w.simulated(rd, out) },
		counts:    func(out *metrics) { fleetCounts(rd, out) },
	}
}

func fleetCounts(rd *fleetRound, out *metrics) {
	var mc memCounts
	for _, h := range rd.hierarchies() {
		mc.addHierarchy(h)
	}
	mc.emit(out)
	var cc caerCounts
	var sc schedCounts
	var instr uint64
	for _, n := range rd.c.Nodes() {
		s := n.Sched()
		cc.probes += s.Period() * uint64(s.LatencyApps())
		for _, j := range s.JobReports() {
			cc.cPositive += j.CPositive
			cc.cNegative += j.CNegative
			cc.paused += j.PausedPeriods
		}
		sc.migrations += float64(s.Migrations())
		sc.maxWait = max(sc.maxWait, float64(s.MaxWait()))
		sc.degraded += float64(s.DegradedTicks())
		m := n.Machine()
		for core := 0; core < m.Cores(); core++ {
			instr += m.ReadCounter(core, pmu.EventInstrRetired)
		}
	}
	out.set("machine.instructions", "count", float64(instr))
	cc.emit(out)
	var waits []float64
	for _, j := range rd.rep.Jobs {
		waits = append(waits, float64(max(int(j.Admitted)-1-j.Arrived, 0)))
	}
	sc.dispatched = float64(rd.rep.Dispatched)
	sc.fleetMigrations = float64(rd.rep.Migrations)
	p, err := percentile(waits, 0.9)
	sc.waitP90 = p
	sc.emit(out)
	if err != nil {
		out.note("fleet.wait_p90_periods", "refused: "+err.Error())
	}
}

// tracedRound times every Cluster.Tick under a CPU profile. Replay cannot
// reconcile the fleet (partition resizes and flushes are invisible from
// outside), so layer host time comes from the sampled profile instead.
func (b fleetBench) tracedRound(tm *stepTimer, out *metrics) (outcome, error) {
	prof := &profiler{}
	reads := telemetry.PMUReads.Value()
	if err := prof.start(); err != nil {
		return outcome{}, err
	}
	rd := b.w.round(tm, fleetWorkers)
	prof.stop()
	reads = telemetry.PMUReads.Value() - reads
	shares, samples, err := prof.fold()
	if err != nil {
		return outcome{}, err
	}
	traced := float64(tm.total.Nanoseconds())
	periods := float64(len(tm.ms))
	var mc memCounts
	for _, h := range rd.hierarchies() {
		mc.addHierarchy(h)
	}
	refs := float64(mc.l1.Accesses)
	out.set("mem.ns_per_access", "ns", shares["mem"]*traced/refs)
	out.set("mem.share", "ratio", shares["mem"])
	out.set("workload.ns_per_ref", "ns", shares["workload"]*traced/refs)
	out.set("workload.share", "ratio", shares["workload"])
	out.set("machine.self_ns_per_period", "ns", shares["machine"]*traced/periods)
	out.set("machine.share", "ratio", shares["machine"])
	out.set("pmu.reads", "count", float64(reads))
	out.set("pmu.ns_per_read", "ns", shares["pmu"]*traced/float64(reads))
	out.set("caer.ns_per_tick", "ns", (shares["pmu"]+shares["caer"])*traced/periods)
	out.set("caer.share", "ratio", shares["pmu"]+shares["caer"])
	for _, name := range []string{"mem.ns_per_access", "mem.share", "workload.ns_per_ref", "workload.share",
		"machine.self_ns_per_period", "machine.share", "pmu.ns_per_read", "caer.ns_per_tick", "caer.share"} {
		out.note(name, "sampled from the cpu profile")
	}
	emitCPUShares(out, shares, samples)
	return b.outcome(rd), nil
}
