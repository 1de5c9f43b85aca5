package caer

// Benchmark harness: one testing.B benchmark per data figure in the
// paper's evaluation (Figures 1, 2, 3, 6, 7, 8, 9, 10), plus ablation
// benchmarks for the design choices DESIGN.md calls out (static cache
// partitioning, adaptive response, DVFS response) and micro-benchmarks of
// the substrate's hot paths.
//
// Figure benchmarks run the corresponding experiment end to end on
// 8x-shrunken benchmark lengths (the shapes are unchanged; full-length
// numbers are recorded in EXPERIMENTS.md via cmd/caer-bench) and report
// the figure's headline metric through b.ReportMetric.

import (
	"math/rand"
	"testing"

	icaer "caer/internal/caer"
	"caer/internal/comm"
	"caer/internal/experiments"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/runner"
	"caer/internal/sched"
	"caer/internal/spec"
	"caer/internal/workload"
)

// benchSuite returns a fresh experiment suite over all 21 benchmarks at
// 1/8 length.
func benchSuite() *experiments.Suite {
	s := experiments.NewSuite()
	s.Seed = 1
	for _, p := range spec.All() {
		p.Exec.Instructions /= 8
		s.Benchmarks = append(s.Benchmarks, p)
	}
	return s
}

func BenchmarkFigure1ColocationPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure1()
		b.ReportMetric(f.Mean, "mean-slowdown")
	}
}

func BenchmarkFigure2MissIncrease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure2()
		var alone, colo float64
		for j := range f.Benchmarks {
			alone += f.MissesAlone[j]
			colo += f.MissesColo[j]
		}
		b.ReportMetric(colo/alone, "miss-increase")
	}
}

func BenchmarkFigure3PhaseCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure3(600)
		var c float64
		for _, srs := range f.Series {
			c += srs.Correlation
		}
		b.ReportMetric(c/float64(len(f.Series)), "mean-correlation")
	}
}

func BenchmarkFigure6CAERPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure6()
		b.ReportMetric(f.MeanColo, "colo-slowdown")
		b.ReportMetric(f.MeanShutter, "shutter-slowdown")
		b.ReportMetric(f.MeanRule, "rule-slowdown")
	}
}

func BenchmarkFigure7UtilizationGained(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure7()
		b.ReportMetric(f.MeanShutter*100, "shutter-util-%")
		b.ReportMetric(f.MeanRule*100, "rule-util-%")
	}
}

func BenchmarkFigure8InterferenceEliminated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure8()
		b.ReportMetric(f.MeanShutter*100, "shutter-eliminated-%")
		b.ReportMetric(f.MeanRule*100, "rule-eliminated-%")
	}
}

func BenchmarkFigure9AccuracyMostSensitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().FigureAccuracy(true, 6)
		b.ReportMetric(f.MeanShutter*100, "shutter-A-%")
		b.ReportMetric(f.MeanRule*100, "rule-A-%")
	}
}

func BenchmarkFigure10AccuracyLeastSensitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().FigureAccuracy(false, 6)
		b.ReportMetric(f.MeanShutter*100, "shutter-A-%")
		b.ReportMetric(f.MeanRule*100, "rule-A-%")
	}
}

// benchScenario runs mcf-vs-lbm (1/8 length) under one scenario variant.
func benchScenario(b *testing.B, mutate func(*runner.Scenario)) {
	b.Helper()
	mcf, _ := spec.ByName("mcf")
	mcf.Exec.Instructions /= 8
	for i := 0; i < b.N; i++ {
		s := runner.Scenario{Latency: mcf, Seed: 1}
		mutate(&s)
		r := runner.Run(s)
		alone := runner.Run(runner.Scenario{Latency: mcf, Mode: runner.ModeAlone, Seed: 1})
		b.ReportMetric(runner.Slowdown(r, alone), "slowdown")
		if s.Mode != runner.ModeAlone {
			b.ReportMetric(runner.UtilizationGained(r)*100, "util-gained-%")
		}
	}
}

// Ablation: static L3 way-partitioning (hardware cache QoS) versus CAER's
// software throttling, on the worst pair.
func BenchmarkAblationPartitionedL3(b *testing.B) {
	benchScenario(b, func(s *runner.Scenario) {
		s.Mode = runner.ModeNativeColo
		s.PartitionWays = 12
	})
}

// Ablation: fixed-length red-light/green-light versus the adaptive variant.
func BenchmarkAblationAdaptiveResponse(b *testing.B) {
	benchScenario(b, func(s *runner.Scenario) {
		s.Mode = runner.ModeCAER
		s.Heuristic = icaer.HeuristicShutter
		cfg := icaer.DefaultConfig()
		cfg.AdaptiveResponse = true
		s.Config = cfg
	})
}

// Ablation: the hybrid rule-gate + shutter-confirm extension heuristic.
func BenchmarkAblationHybridHeuristic(b *testing.B) {
	benchScenario(b, func(s *runner.Scenario) {
		s.Mode = runner.ModeCAER
		s.Heuristic = icaer.HeuristicHybrid
	})
}

// Ablation: DVFS-style down-clocking instead of pausing.
func BenchmarkAblationDVFSResponse(b *testing.B) {
	benchScenario(b, func(s *runner.Scenario) {
		s.Mode = runner.ModeCAER
		s.Heuristic = icaer.HeuristicRule
		s.Actuator = icaer.DVFSActuator(4)
	})
}

// Micro-benchmarks of the substrate's hot paths.

func BenchmarkCacheAccess(b *testing.B) {
	c := mem.NewCache(mem.Config{Name: "bench", Sets: 512, Ways: 16})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(12288))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&4095]
		if !c.Lookup(a, false) {
			c.Insert(a, 0, false)
		}
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(12288))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i&1, addrs[i&4095], false, uint64(i))
	}
}

func BenchmarkMachinePeriod(b *testing.B) {
	m := machine.New(machine.Config{Cores: 2})
	mcf, _ := spec.ByName("mcf")
	m.Bind(0, mcf.Batch().NewProcess(0, 1))
	m.Bind(1, spec.LBM().Batch().NewProcess(1<<28, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunPeriod()
	}
}

// BenchmarkPMUProbe: one sampler sweep (read-and-restart of every
// counter) on a warm 2-core machine.
func BenchmarkPMUProbe(b *testing.B) {
	m := machine.New(machine.Config{Cores: 2})
	mcf, _ := spec.ByName("mcf")
	m.Bind(0, mcf.Batch().NewProcess(0, 1))
	m.Bind(1, spec.LBM().Batch().NewProcess(1<<28, 2))
	m.RunPeriod()
	s := pmu.NewSampler(pmu.New(m, 0), []pmu.Event{
		pmu.EventLLCMisses, pmu.EventLLCAccesses,
		pmu.EventInstrRetired, pmu.EventCycles,
	}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Probe()
	}
}

// BenchmarkCommPublish: one windowed sample publish into a table slot.
func BenchmarkCommPublish(b *testing.B) {
	t := comm.NewTable(icaer.DefaultConfig().WindowSize)
	slot := t.Register("bench", comm.RoleBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot.Publish(float64(i & 255))
	}
}

// BenchmarkEngineTick: one full detect/respond tick of a rule-based
// engine, including its own publish and the neighbour window read.
func BenchmarkEngineTick(b *testing.B) {
	cfg := icaer.DefaultConfig()
	t := comm.NewTable(cfg.WindowSize)
	lat := t.Register("lat", comm.RoleLatency)
	own := t.Register("batch", comm.RoleBatch)
	eng := icaer.NewEngine(icaer.NewRuleDetector(cfg), icaer.NewRedLightGreenLight(cfg), own, []*comm.Slot{lat})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.BumpPeriod()
		lat.Publish(float64((i * 7) & 255))
		eng.Tick(float64(i & 255))
	}
}

// BenchmarkSchedTick: one scheduler period on a small 2-domain machine —
// machine step, classifier observation, per-domain engine ticks and
// admission/aging, the ModeScheduled inner loop.
func BenchmarkSchedTick(b *testing.B) {
	m := machine.New(machine.Config{Cores: 4, Domains: 2, PeriodCycles: 6000, SlicesPerPeriod: 60})
	sd := sched.New(m, sched.Config{AdmitThreshold: 100})
	mcf, _ := spec.ByName("mcf")
	sd.AddLatency("mcf", 0, mcf.NewProcess(0, 1))
	lbm := spec.LBM()
	for j := 0; j < 2; j++ {
		j := j
		sd.Submit(sched.Job{Name: "lbm", New: func() *machine.Process {
			return lbm.Batch().NewProcess(uint64(1<<28)+uint64(j)<<26, 2+int64(j))
		}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd.Step()
	}
}

func BenchmarkShutterDetectorStep(b *testing.B) {
	d := icaer.NewShutterDetector(icaer.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step(float64(i&255), float64((i*7)&255))
	}
}

func BenchmarkRuleDetectorStep(b *testing.B) {
	d := icaer.NewRuleDetector(icaer.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step(float64(i&255), float64((i*7)&255))
	}
}

func BenchmarkWorkloadGenerators(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gens := map[string]workload.Generator{
		"stream":  workload.NewStream(0, 8192, 1, 0.3),
		"uniform": workload.NewUniform(0, 8192, 0.3),
		"chase":   workload.NewPointerChase(0, 8192, 1, 0.3),
		"hotcold": workload.NewHotCold(workload.NewUniform(0, 512, 0), workload.NewUniform(1<<20, 8192, 0), 0.9),
	}
	for name, g := range gens {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Next(rng)
			}
		})
	}
}
