// Package telemetry is the runtime's observability spine: an online,
// always-on metric registry whose hot-path operations are lock-free and
// allocation-free, plus a fixed-capacity span recorder for the detection
// pipeline (see span.go) and live export surfaces (Prometheus-style text
// snapshots, an optional HTTP endpoint, Chrome trace-event JSON).
//
// The paper's §5 overhead analysis budgets <1% of each 1 ms sampling period
// for the whole CAER stack; the telemetry layer must fit inside that budget
// or it perturbs the very signal it reports. The discipline mirrors the
// caer-vet `hotpath` analyzer's: all registration (which allocates and
// takes locks) happens at deployment setup, returning pre-registered
// handles; the per-period path then touches only atomics. Every hot
// operation also bumps the registry's self-cost counter, so the layer
// accounts for its own overhead (caer_telemetry_ops_total).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"caer/internal/stats"
)

// MetricKind classifies a registered metric.
//
//caer:enum
type MetricKind int

const (
	// KindCounter is a monotonically increasing event count.
	KindCounter MetricKind = iota
	// KindGauge is a point-in-time value, overwritten each period.
	KindGauge
	// KindHistogram is a fixed-bucket distribution of observations.
	KindHistogram
)

// String names the kind in Prometheus TYPE vocabulary.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// Counter is a monotonically increasing counter. Inc and Add are lock-free,
// allocation-free, and safe for concurrent use.
type Counter struct {
	v    atomic.Uint64
	self *atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	c.v.Add(1)
	c.self.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	c.v.Add(n)
	c.self.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time float64 value. Set is lock-free and
// allocation-free.
type Gauge struct {
	bits atomic.Uint64
	self *atomic.Uint64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	g.self.Add(1)
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bins observations into fixed-width buckets over [min, max) with
// underflow/overflow tails, mirroring stats.Histogram's geometry but with
// atomic counters so Observe is lock-free and allocation-free. Snapshot
// converts back into a stats.Histogram for quantile math.
type Histogram struct {
	min, max float64
	width    float64
	buckets  []atomic.Uint64
	under    atomic.Uint64
	over     atomic.Uint64
	count    atomic.Uint64
	sumBits  atomic.Uint64
	self     *atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	switch {
	case v < h.min:
		h.under.Add(1)
	case v >= h.max:
		h.over.Add(1)
	default:
		idx := int((v - h.min) / h.width)
		if idx >= len(h.buckets) { // float edge case at the top boundary
			idx = len(h.buckets) - 1
		}
		h.buckets[idx].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.self.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot copies the current bucket counts into a stats.Histogram with the
// same geometry (underflow samples land at min, overflow at max), so
// existing quantile/render machinery applies. Export path only: allocates.
//
//caer:alloc
func (h *Histogram) Snapshot() *stats.Histogram {
	s := stats.NewHistogram(h.min, h.max, len(h.buckets))
	s.AddN(h.min-h.width, h.under.Load()) // below min: under bucket
	for i := range h.buckets {
		s.AddN(h.min+(float64(i)+0.5)*h.width, h.buckets[i].Load())
	}
	s.AddN(h.max, h.over.Load())
	return s
}

// metric is one registered (name, labels) series.
type metric struct {
	name   string // family name
	labels string // rendered {k="v",...}, or ""
	help   string
	kind   MetricKind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds registered metrics. Registration allocates and locks and
// must happen at deployment setup; the returned handles are the hot-path
// interface. Registering the same (name, labels) twice returns the same
// handle, so independently constructed components share series.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
	selfOps atomic.Uint64
	// count mirrors len(metrics) atomically so the Series sampler can
	// detect late registrations without taking the registry lock on its
	// per-period path.
	count atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// SelfOps returns the number of hot-path telemetry operations performed
// against this registry's handles — the registry's own-cost account. Each
// Inc/Add/Set/Observe is one op; multiply by the benchmarked per-op cost
// (see BenchmarkCounterInc and friends) for a wall-clock overhead estimate.
func (r *Registry) SelfOps() uint64 { return r.selfOps.Load() }

// renderLabels formats k/v pairs as a stable {k="v",...} string.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	parts := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// register returns the existing metric for (name, labels) or installs a new
// one built by mk. It panics if the name is already registered with a
// different kind — one family, one kind.
func (r *Registry) register(name, help string, kind MetricKind, kv []string, mk func() *metric) *metric {
	if name == "" {
		panic("telemetry: metric needs a name")
	}
	labels := renderLabels(kv)
	key := name + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v (was %v)", key, kind, m.kind))
		}
		return m
	}
	m := mk()
	m.name, m.labels, m.help, m.kind = name, labels, help, kind
	r.metrics = append(r.metrics, m)
	r.byKey[key] = m
	r.count.Store(int64(len(r.metrics)))
	return m
}

// Counter registers (or fetches) a counter. kv is an alternating
// key1, value1, key2, value2, ... label list.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	m := r.register(name, help, KindCounter, kv, func() *metric {
		return &metric{c: &Counter{self: &r.selfOps}}
	})
	return m.c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	m := r.register(name, help, KindGauge, kv, func() *metric {
		return &metric{g: &Gauge{self: &r.selfOps}}
	})
	return m.g
}

// Histogram registers (or fetches) a histogram with `buckets` equal-width
// bins over [min, max).
func (r *Registry) Histogram(name, help string, min, max float64, buckets int, kv ...string) *Histogram {
	if buckets <= 0 || !(max > min) {
		panic(fmt.Sprintf("telemetry: histogram %s needs positive buckets over a non-empty range", name))
	}
	m := r.register(name, help, KindHistogram, kv, func() *metric {
		return &metric{h: &Histogram{
			min: min, max: max,
			width:   (max - min) / float64(buckets),
			buckets: make([]atomic.Uint64, buckets),
			self:    &r.selfOps,
		}}
	})
	return m.h
}

// formatValue renders a float in Prometheus text style.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// joinLabels merges a rendered label set with one extra pair (used for
// histogram `le` labels).
func joinLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus writes every registered metric as Prometheus text
// exposition format (version 0.0.4): families sorted by name, one HELP/TYPE
// header per family, histograms expanded into cumulative _bucket/_sum/_count
// series. Export path: allocates freely.
//
//caer:alloc
func (r *Registry) WritePrometheus(out io.Writer) error {
	var w strings.Builder
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()

	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	lastFamily := ""
	for _, m := range ms {
		if m.name != lastFamily {
			fmt.Fprintf(&w, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(&w, "# TYPE %s %s\n", m.name, m.kind)
			lastFamily = m.name
		}
		switch m.kind {
		case KindCounter:
			fmt.Fprintf(&w, "%s%s %d\n", m.name, m.labels, m.c.Value())
		case KindGauge:
			fmt.Fprintf(&w, "%s%s %s\n", m.name, m.labels, formatValue(m.g.Value()))
		case KindHistogram:
			h := m.h
			cum := h.under.Load()
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				le := formatValue(h.min + float64(i+1)*h.width)
				fmt.Fprintf(&w, "%s_bucket%s %d\n", m.name, joinLabels(m.labels, `le="`+le+`"`), cum)
			}
			cum += h.over.Load()
			fmt.Fprintf(&w, "%s_bucket%s %d\n", m.name, joinLabels(m.labels, `le="+Inf"`), cum)
			fmt.Fprintf(&w, "%s_sum%s %s\n", m.name, m.labels, formatValue(h.Sum()))
			fmt.Fprintf(&w, "%s_count%s %d\n", m.name, m.labels, h.Count())
		default:
			panic(fmt.Sprintf("telemetry: unknown metric kind %d", int(m.kind)))
		}
	}
	_, err := io.WriteString(out, w.String())
	return err
}
