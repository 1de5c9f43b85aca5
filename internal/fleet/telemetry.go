package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"caer/internal/sched"
	"caer/internal/slo"
	"caer/internal/stats"
	"caer/internal/telemetry"
)

// This file is the fleet's metrics-fed control plane (observability v2):
// each node keeps a per-period time-series store and an SLO burn-rate
// engine over its own registry, and PolicyTelemetry places work by
// periodically scraping each node's exported registry — the same bytes
// /metrics serves — instead of reading classifier summaries synchronously.
// A scrape that goes stale past the configured horizon degrades that
// machine's scoring to the synchronous least-pressure fallback, so a dead
// telemetry plane can cost signal quality but never liveness.

// SLOConfig declares the per-node objectives the fleet evaluates every
// period. The zero value disables the SLO engine (nodes still keep their
// time-series store for dumps and the doctor).
type SLOConfig struct {
	// LatencyQuantile and LatencyBound declare one objective per open-loop
	// (Relaunch) service: "p<Quantile> of caer_fleet_request_latency_periods
	// < Bound". 0 disables latency objectives.
	LatencyQuantile float64
	LatencyBound    float64
	// DegradedBudget declares a budget objective on the node's fail-open
	// degraded engine ticks: "rate < DegradedBudget per period". 0 disables.
	DegradedBudget float64
	// Window/FastWindow/Burn/PendingPeriods tune every declared objective
	// (see slo.Objective; zero values take that package's defaults, except
	// Window which defaults to 64 periods here).
	Window         int
	FastWindow     int
	Burn           float64
	PendingPeriods int
}

func (s SLOConfig) enabled() bool { return s.LatencyQuantile > 0 || s.DegradedBudget > 0 }

func (s SLOConfig) withDefaults() SLOConfig {
	if s.Window == 0 {
		s.Window = 64
	}
	return s
}

// objectives builds node n's objective list: one latency objective per
// distinct open-loop service (same-named services share one histogram
// series, hence one objective), plus the degraded-ticks budget.
func (s SLOConfig) objectives(n *Node) []slo.Objective {
	var objs []slo.Objective
	if s.LatencyQuantile > 0 {
		seen := make(map[string]bool, len(n.services))
		for _, sv := range n.services {
			if !sv.relaunch || seen[sv.name] {
				continue
			}
			seen[sv.name] = true
			objs = append(objs, slo.Objective{
				Name:    "latency-" + sv.name,
				Metric:  "caer_fleet_request_latency_periods",
				LabelKV: []string{"service", sv.name},
				Kind:    slo.KindQuantile, Quantile: s.LatencyQuantile, Bound: s.LatencyBound,
				Window: s.Window, FastWindow: s.FastWindow, Burn: s.Burn,
				PendingPeriods: s.PendingPeriods,
			})
		}
	}
	if s.DegradedBudget > 0 {
		objs = append(objs, slo.Objective{
			Name:   "degraded-budget",
			Metric: "caer_fleet_node_degraded_ticks_total",
			Kind:   slo.KindBudget, Budget: s.DegradedBudget,
			Window: s.Window, FastWindow: s.FastWindow, Burn: s.Burn,
			PendingPeriods: s.PendingPeriods,
		})
	}
	return objs
}

// Scraper is the transport PolicyTelemetry reads node registries through:
// Scrape writes machine k's Prometheus text snapshot to w, or returns an
// error (the injectable failure the staleness-fallback tests force). The
// default scraper reads the node registry directly — the same bytes the
// /metrics endpoint serves, without the socket.
type Scraper interface {
	Scrape(machine int, w io.Writer) error
}

// ScraperFunc adapts a function to Scraper.
type ScraperFunc func(machine int, w io.Writer) error

// Scrape implements Scraper.
func (f ScraperFunc) Scrape(machine int, w io.Writer) error { return f(machine, w) }

// registryScraper is the default in-process transport.
type registryScraper struct{ c *Cluster }

func (r registryScraper) Scrape(machine int, w io.Writer) error {
	return r.c.nodes[machine].reg.WritePrometheus(w)
}

// TelView is one machine's state as derived purely from its scraped
// metrics — the telemetry analogue of sched.Summary. Zero until the first
// successful scrape.
type TelView struct {
	// Fresh reports the last successful scrape is within the staleness
	// horizon; Age is its distance in ticks (horizon+1 when never scraped).
	Fresh bool
	Age   int
	// Pressure is the summed caer_core_pressure of the machine's latency
	// roles; Sensitivity and BatchLoad mirror the exported node gauges.
	Pressure    float64
	Sensitivity float64
	BatchLoad   float64
	// LatencyP99 is the p99, in periods, of all request latencies observed
	// between the last two scrapes (0 until two scrapes have landed).
	LatencyP99 float64
	// Burning counts the machine's caer_slo_* alerts currently firing.
	Burning int
}

// telState is the cluster's per-machine scrape bookkeeping.
type telState struct {
	view     TelView
	lastTick int // tick of the last successful scrape; -1 = never
	// lastBuckets remembers each latency series' cumulative bucket counts
	// (finite les ascending, then +Inf) so the next scrape can difference
	// them into a window distribution.
	lastBuckets map[string][]float64
}

// fresh reports whether the state is within the staleness horizon at tick.
//
//caer:hot
func (t *telState) fresh(tick, horizon int) bool {
	return t.lastTick >= 0 && tick-t.lastTick <= horizon
}

// scrapeAll refreshes every machine's TelView through the scraper. Cold
// path (runs every ScrapePeriod ticks): parses text, allocates freely. A
// failed scrape leaves the machine's last view standing and its age
// growing — exactly what a dead exporter looks like from a real collector.
//
//caer:cold amortized: runs once every ScrapePeriod ticks and parses whole text snapshots (DESIGN.md §15)
func (c *Cluster) scrapeAll() {
	for k := range c.nodes {
		c.scrapeBuf.Reset()
		if err := c.scraper.Scrape(k, &c.scrapeBuf); err != nil {
			continue
		}
		ms, err := telemetry.ParseText(bytes.NewReader(c.scrapeBuf.Bytes()))
		if err != nil {
			continue
		}
		c.deriveView(k, ms)
		c.tel[k].lastTick = c.tick
	}
}

// bucketSample is one cumulative histogram bucket parsed from a scrape.
type bucketSample struct {
	le  float64 // upper edge; +Inf parsed from the le="+Inf" series
	cum float64
}

// deriveView folds one machine's parsed snapshot into its TelView.
func (c *Cluster) deriveView(k int, ms []telemetry.TextMetric) {
	st := &c.tel[k]
	v := TelView{}
	latBuckets := make(map[string][]bucketSample)
	for _, m := range ms {
		switch m.Name {
		case "caer_core_pressure":
			if m.Label("role") == "latency" {
				v.Pressure += m.Value
			}
		case "caer_fleet_node_sensitivity":
			v.Sensitivity = m.Value
		case "caer_fleet_node_batch_load":
			v.BatchLoad = m.Value
		case "caer_slo_state":
			if m.Value == float64(slo.StateFiring) {
				v.Burning++
			}
		case "caer_fleet_request_latency_periods_bucket":
			le := parseLe(m.Label("le"))
			svc := m.Label("service")
			latBuckets[svc] = append(latBuckets[svc], bucketSample{le: le, cum: m.Value})
		}
	}
	v.LatencyP99 = c.windowP99(st, latBuckets)
	v.Age = 0
	v.Fresh = true
	st.view = v
}

// parseLe parses a bucket upper edge; le="+Inf" maps to -1 (sorts last by
// special-casing, never compared numerically against finite edges).
func parseLe(s string) float64 {
	if s == "+Inf" {
		return -1
	}
	var v float64
	fmt.Sscanf(s, "%g", &v)
	return v
}

// windowP99 differences each latency series' cumulative buckets against
// the previous scrape, folds every service's window distribution into one
// stats.Histogram, and returns its p99 — the shared Quantile math, fed
// from scraped bytes. Returns 0 until two scrapes have landed or when the
// window saw no requests. All caer latency histograms start at 0, so the
// bucket width is the first finite upper edge.
func (c *Cluster) windowP99(st *telState, latBuckets map[string][]bucketSample) float64 {
	if st.lastBuckets == nil {
		st.lastBuckets = make(map[string][]float64)
	}
	svcs := make([]string, 0, len(latBuckets))
	for svc := range latBuckets {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	var merged *stats.Histogram
	for _, svc := range svcs {
		bs := latBuckets[svc]
		// Finite edges ascending, +Inf last (the writer emits les as
		// strings, so the parsed order is lexical, not numeric).
		sort.Slice(bs, func(i, j int) bool {
			if (bs[i].le < 0) != (bs[j].le < 0) {
				return bs[j].le < 0
			}
			return bs[i].le < bs[j].le
		})
		cums := make([]float64, len(bs))
		for i, b := range bs {
			cums[i] = b.cum
		}
		prev := st.lastBuckets[svc]
		st.lastBuckets[svc] = cums
		if len(prev) != len(cums) || len(bs) < 2 {
			continue // first sight of this series (or geometry changed)
		}
		width := bs[0].le
		max := bs[len(bs)-2].le // last finite edge
		h := stats.NewHistogram(0, max, len(bs)-1)
		lastCum := 0.0
		for i, b := range bs {
			d := (b.cum - prev[i]) - lastCum
			lastCum = b.cum - prev[i]
			if d <= 0 {
				continue
			}
			if b.le < 0 { // overflow
				h.AddN(max, uint64(d))
			} else {
				h.AddN(b.le-width/2, uint64(d))
			}
		}
		if merged == nil {
			merged = h
		} else {
			merged.Merge(h)
		}
	}
	if merged == nil || merged.N() == 0 {
		return 0
	}
	return merged.Quantile(0.99)
}

// fillTelViews copies the scrape bookkeeping into the placement views.
// Hot path (every dispatch decision): allocation-free.
func (c *Cluster) fillTelViews() {
	for k := range c.tel {
		st := &c.tel[k]
		v := st.view
		if st.lastTick < 0 {
			v.Age = c.cfg.StalenessHorizon + 1
			v.Fresh = false
		} else {
			v.Age = c.tick - st.lastTick
			v.Fresh = v.Age <= c.cfg.StalenessHorizon
		}
		c.views[k].Tel = v
	}
}

// DecisionKind classifies a fleet decision-log entry.
//
//caer:enum
type DecisionKind int

const (
	// DecisionDispatch records a job leaving the fleet queue for a machine.
	DecisionDispatch DecisionKind = iota
	// DecisionMigrate records a queued job moving between machines.
	DecisionMigrate
)

// String names the kind.
func (k DecisionKind) String() string {
	switch k {
	case DecisionDispatch:
		return "dispatch"
	case DecisionMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("DecisionKind(%d)", int(k))
	}
}

// Decision is one entry of the fleet placement timeline — the provenance
// record caer-doctor joins against SLO burn windows.
type Decision struct {
	Tick int          `json:"tick"`
	Kind DecisionKind `json:"kind"`
	Job  int          `json:"job"`
	Name string       `json:"name"`
	From int          `json:"from"` // source machine; -1 for dispatches
	To   int          `json:"to"`
	// Fresh records whether the target machine's telemetry view was fresh
	// at decision time (always false under non-telemetry policies).
	Fresh bool `json:"fresh"`
}

// Decisions returns a copy of the fleet placement timeline.
func (c *Cluster) Decisions() []Decision {
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}

// EventsDump is the engine-event log bundle caer-doctor reads: the fleet
// placement timeline plus every machine's scheduler decision log.
type EventsDump struct {
	Policy string `json:"policy"`
	Ticks  int    `json:"ticks"`
	Fleet  []Decision `json:"fleet"`
	// Machines[k] is machine k's sched decision timeline (admissions,
	// intra-machine migrations, completions, withdrawals).
	Machines [][]sched.Decision `json:"machines"`
}

// WriteEvents writes the fleet + per-machine decision logs as JSON.
// Export path: allocates.
func (c *Cluster) WriteEvents(w io.Writer) error {
	d := EventsDump{
		Policy: c.placer.Name(),
		Ticks:  c.tick,
		Fleet:  c.Decisions(),
	}
	for _, n := range c.nodes {
		d.Machines = append(d.Machines, n.sched.Decisions())
	}
	return json.NewEncoder(w).Encode(&d)
}

// ParseEvents reads a WriteEvents dump back (the doctor's side).
func ParseEvents(r io.Reader) (*EventsDump, error) {
	var d EventsDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("fleet: parse events: %w", err)
	}
	return &d, nil
}

// syncTelemetry refreshes node n's exported gauges, takes the period's
// time-series sample, and runs the SLO evaluation. Runs once per tick per
// node, after the machines stepped. Hot path: allocation-free (the
// registry was fully populated at construction, so Sample never extends).
func (n *Node) syncTelemetry() {
	n.sched.Summarize(&n.sum)
	n.freeCoresG.Set(float64(n.sum.FreeCores))
	n.sensitivityG.Set(n.sum.Sensitivity)
	n.batchLoadG.Set(n.sum.BatchLoad)
	n.sched.LatencySignals(n.pressureBuf, n.sensBuf)
	for i := range n.pressureG {
		n.pressureG[i].Set(n.pressureBuf[i])
	}
	d := n.sched.DegradedTicks()
	n.degraded.Add(d - n.lastDegraded)
	n.lastDegraded = d
	n.series.Sample()
	if n.slo != nil {
		n.slo.Evaluate()
	}
}

// Series exposes the node's per-period time-series store.
func (n *Node) Series() *telemetry.Series { return n.series }

// SLO exposes the node's SLO engine (nil when Config.SLO is zero).
func (n *Node) SLO() *slo.Engine { return n.slo }
