package main

// Record and replay: the traced pair run logs what crosses each layer's
// public boundary, then replays each log into a fresh instance of that
// layer alone and times it there. The replays must reproduce the live
// run's counters exactly, or the breakdown is refused.

import (
	"fmt"
	"math/rand"
	"time"

	"caer/internal/caer"
	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/spec"
	"caer/internal/workload"
)

// A logged reference packs addr<<2 | core<<1 | write. A relaunch marker
// sets the top bit and keeps the core bit: the runtime flushes the core's
// caches and rewinds its generator there.
const relaunchMark = 1 << 63

// numEvents bounds the PMU event ids the recorder logs per core.
const numEvents = 8

// genSpec is how a recorded core's generator was built.
type genSpec struct {
	prof spec.Profile
	base uint64
	seed int64
}

// recorder holds one live scenario's boundary log. The logs are sized
// before the run and filled by index: the wrappers run inside the
// simulator's per-period hot path, which must not allocate.
type recorder struct {
	refs     []uint64
	nrefs    int
	bounds   []int       // nrefs after each period
	gens     [2]*genSpec // per core; nil when the core ran nothing
	reads    [][]uint64  // per core*numEvents+event: counter values in read order
	nread    []int
	overflow bool // a log filled up; the replay cannot reconcile
}

// newRecorder sizes a recorder for at most refs references (relaunch
// markers included) and periods probe periods.
func newRecorder(refs, periods int) *recorder {
	rec := &recorder{
		refs:   make([]uint64, refs),
		bounds: make([]int, 0, periods),
		reads:  make([][]uint64, 2*numEvents),
		nread:  make([]int, 2*numEvents),
	}
	for k := range rec.reads {
		// One read per probe period plus the arming read.
		rec.reads[k] = make([]uint64, periods+1)
	}
	return rec
}

func (rec *recorder) log(v uint64) {
	if rec.nrefs == len(rec.refs) {
		rec.overflow = true
		return
	}
	rec.refs[rec.nrefs] = v
	rec.nrefs++
}

// finish trims the logs to what the run wrote.
func (rec *recorder) finish() error {
	if rec.overflow {
		return fmt.Errorf("trace: recorder log overflowed")
	}
	rec.refs = rec.refs[:rec.nrefs]
	for k := range rec.reads {
		rec.reads[k] = rec.reads[k][:rec.nread[k]]
	}
	return nil
}

// reads counts the counter reads logged.
func (rec *recorder) readCount() uint64 {
	var n uint64
	for _, c := range rec.nread {
		n += uint64(c)
	}
	return n
}

// wrap returns a copy of p whose generators log every reference as core's.
func (rec *recorder) wrap(p spec.Profile, core uint64) spec.Profile {
	orig := p
	p.NewGen = func(base uint64, seed int64) workload.Generator {
		rec.gens[core] = &genSpec{prof: orig, base: base, seed: seed}
		return &recGen{inner: orig.NewGen(base, seed), core: core, rec: rec}
	}
	return p
}

// endPeriod marks a period boundary in the reference log.
func (rec *recorder) endPeriod() { rec.bounds = append(rec.bounds, rec.nrefs) }

// recGen logs each reference its inner generator emits.
type recGen struct {
	inner workload.Generator
	core  uint64
	rec   *recorder
}

func (g *recGen) Next(r *rand.Rand) workload.Access {
	a := g.inner.Next(r)
	v := a.Addr<<2 | g.core<<1
	if a.Write {
		v |= 1
	}
	g.rec.log(v)
	return a
}

func (g *recGen) Name() string { return g.inner.Name() }

// Reset is called when the runtime relaunches the process, right after it
// flushed the core's caches.
func (g *recGen) Reset() {
	workload.Reset(g.inner)
	g.rec.log(relaunchMark | g.core<<1)
}

// recSource counts and logs every counter read the runtime's PMUs make.
type recSource struct {
	src pmu.Source
	rec *recorder
}

func (rec *recorder) source(src pmu.Source) pmu.Source { return recSource{src, rec} }

func (s recSource) ReadCounter(core int, ev pmu.Event) uint64 {
	v := s.src.ReadCounter(core, ev)
	k := core*numEvents + int(ev)
	if n := s.rec.nread[k]; n < len(s.rec.reads[k]) {
		s.rec.reads[k][n] = v
		s.rec.nread[k]++
	} else {
		s.rec.overflow = true
	}
	return v
}

// replaySource serves logged counter values back in read order.
type replaySource struct {
	reads   [][]uint64
	pos     []int
	overrun bool
}

func (s *replaySource) ReadCounter(core int, ev pmu.Event) uint64 {
	k := core*numEvents + int(ev)
	if s.pos[k] >= len(s.reads[k]) {
		s.overrun = true
		return 0
	}
	v := s.reads[k][s.pos[k]]
	s.pos[k]++
	return v
}

// replayMem feeds the reference log into a fresh hierarchy built like
// live's, spreading each period's references evenly over its cycles, and
// returns the replayed hierarchy and the time the replay took.
func replayMem(rec *recorder, cfg mem.HierarchyConfig, periodCycles uint64) (*mem.Hierarchy, time.Duration) {
	h := mem.NewHierarchy(cfg)
	t0 := time.Now()
	lo := 0
	for p, hi := range rec.bounds {
		now := uint64(p) * periodCycles
		step := uint64(1)
		if n := uint64(hi - lo); n > 0 && periodCycles/n > 1 {
			step = periodCycles / n
		}
		for _, v := range rec.refs[lo:hi] {
			core := int(v >> 1 & 1)
			if v&relaunchMark != 0 {
				h.FlushCore(core)
				continue
			}
			h.Access(core, v>>2, v&1 == 1, now)
			now += step
		}
		lo = hi
	}
	return h, time.Since(t0)
}

// reconcileMem checks a replayed hierarchy against the live one: every
// core must have made the same number of references and missed the LLC
// the same number of times.
func reconcileMem(replayed, live *mem.Hierarchy) error {
	for c := 0; c < live.Cores(); c++ {
		if r, l := replayed.L1(c).Stats().Accesses, live.L1(c).Stats().Accesses; r != l {
			return fmt.Errorf("mem replay: core %d made %d references, live %d", c, r, l)
		}
		if r, l := replayed.LLCMisses(c), live.LLCMisses(c); r != l {
			return fmt.Errorf("mem replay: core %d missed the LLC %d times, live %d", c, r, l)
		}
	}
	return nil
}

// replayGens drives fresh generators through the same Next calls and
// relaunches as the live run, and checks they emit the logged references.
func replayGens(rec *recorder) (time.Duration, error) {
	var gens [2]workload.Generator
	var rngs [2]*rand.Rand
	for c, gs := range rec.gens {
		if gs != nil {
			gens[c] = gs.prof.NewGen(gs.base, gs.seed)
			rngs[c] = rand.New(rand.NewSource(gs.seed))
		}
	}
	var got uint64
	t0 := time.Now()
	for _, v := range rec.refs {
		c := v >> 1 & 1
		if v&relaunchMark != 0 {
			workload.Reset(gens[c])
			rngs[c] = rand.New(rand.NewSource(rec.gens[c].seed))
			continue
		}
		a := gens[c].Next(rngs[c])
		got += a.Addr<<2 | c<<1
		if a.Write {
			got++
		}
	}
	dt := time.Since(t0)
	var want uint64
	for _, v := range rec.refs {
		if v&relaunchMark == 0 {
			want += v
		}
	}
	if got != want {
		return dt, fmt.Errorf("workload replay: reference checksum %x, live %x", got, want)
	}
	return dt, nil
}

// replayCaer feeds the logged counter values into a fresh comm table,
// monitor and engine wired as the runtime wires them, one probe per
// period, and returns the engine's stats and the replay time.
func replayCaer(rec *recorder, kind caer.HeuristicKind, cfg caer.Config, periods uint64) (caer.EngineStats, time.Duration, error) {
	src := &replaySource{reads: rec.reads, pos: make([]int, len(rec.reads))}
	t := comm.NewTable(cfg.WindowSize)
	lat := t.Register("latency", comm.RoleLatency)
	mon := caer.NewMonitor(pmu.New(src, 0), lat)
	own := t.Register("batch", comm.RoleBatch)
	ownPMU := pmu.New(src, 1)
	eng := caer.NewEngine(kind.NewDetector(cfg), kind.NewResponder(cfg), own, []*comm.Slot{lat})
	eng.SetWatchdog(cfg.WatchdogPeriods)
	if cfg.EventLogCap > 0 {
		eng.SetLogCapacity(cfg.EventLogCap)
	}
	t0 := time.Now()
	for p := uint64(0); p < periods; p++ {
		t.BumpPeriod()
		mon.TickSpan(1)
		t.BroadcastDirective(eng.Tick(float64(ownPMU.ReadDelta(pmu.EventLLCMisses))))
	}
	dt := time.Since(t0)
	if src.overrun {
		return eng.Stats(), dt, fmt.Errorf("caer replay: read past the counter log")
	}
	return eng.Stats(), dt, nil
}

// pmuReadNs times counter reads from the live machine, the source the
// untraced runtime reads.
func pmuReadNs(m *machine.Machine) float64 {
	const n = 1 << 14
	var sum uint64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sum += m.ReadCounter(i&1, pmu.EventLLCMisses)
	}
	dt := time.Since(t0)
	sink = sum
	return float64(dt.Nanoseconds()) / n
}

// sink keeps timed results live so the compiler cannot drop the calls.
var sink uint64

// layerTimes accumulates the traced pair round's breakdown.
type layerTimes struct {
	traced       time.Duration // live traced periods, summed
	periods      uint64
	colocated    uint64 // periods with a CAER runtime
	refs         uint64
	mem, gen, ca time.Duration
	pmuReads     uint64
	pmuNs        []float64
}

// tracedRound runs every scenario live with recording on, then replays
// each layer's log alone and reconciles it against the live counters.
// The live runs are CPU-profiled into prof; the replays are not.
func (w *pairWorkload) tracedRound(tm *stepTimer, prof *profiler) (*pairRound, *layerTimes, error) {
	rd := &pairRound{}
	lt := &layerTimes{}
	for _, sc := range w.scenarios() {
		size, ok := w.logSizes[sc]
		if !ok {
			return nil, nil, fmt.Errorf("trace: no untraced round sized scenario %+v", sc)
		}
		rec := newRecorder(size.refs, size.periods)
		r := w.build(sc, rec)
		before := tm.total
		if err := prof.start(); err != nil {
			return nil, nil, err
		}
		res := w.run(r, tm)
		prof.stop()
		lt.traced += tm.total - before
		lt.periods += res.periods
		if err := rec.finish(); err != nil {
			res.errs = append(res.errs, err.Error())
			rd.add(res)
			continue
		}

		h, memDt := replayMem(rec, r.m.Hierarchy().Config(), r.m.PeriodCycles())
		lt.mem += memDt
		if err := reconcileMem(h, r.m.Hierarchy()); err != nil {
			res.errs = append(res.errs, err.Error())
		}
		genDt, err := replayGens(rec)
		lt.gen += genDt
		if err != nil {
			res.errs = append(res.errs, err.Error())
		}
		for _, v := range rec.refs {
			if v&relaunchMark == 0 {
				lt.refs++
			}
		}
		if r.rt != nil {
			st, caDt, err := replayCaer(rec, sc.mode.heuristic(), w.cfg, res.periods)
			lt.ca += caDt
			lt.colocated += res.periods
			lt.pmuReads += rec.readCount()
			if err != nil {
				res.errs = append(res.errs, err.Error())
			} else if st != res.engine {
				res.errs = append(res.errs, fmt.Sprintf("caer replay: engine stats %+v, live %+v", st, res.engine))
			}
			lt.pmuNs = append(lt.pmuNs, pmuReadNs(r.m))
		}
		rd.add(res)
	}
	rd.finish()
	return rd, lt, nil
}
