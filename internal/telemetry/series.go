package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"caer/internal/stats"
)

// Series is the telemetry time-series store (observability v2): a
// fixed-capacity ring per registered metric, sampled once per sampling
// period straight from the registry's lock-free handles. Counters are
// stored as per-period deltas, gauges as per-period points, histograms as
// per-period bucket deltas (plus a sum delta, so windowed means work).
// Sample is the per-period hot path and is allocation-free once the track
// table is built; late metric registrations are absorbed by the cold
// extend barrier on the next Sample. Windowed queries (Rate, Mean,
// OverShare, QuantileOver) read the retained window; the whole store dumps
// to a JSON snapshot (WriteDump) that ParseSeries round-trips, which is
// what `caer-doctor` replays offline.
//
// A Series is single-writer: Sample must be driven from the same
// per-period loop that owns the registry's period clock (the fleet tick,
// the runtime step). Queries are safe from that same goroutine; the
// export/dump paths snapshot what the writer has published.
type Series struct {
	reg    *Registry
	cap    int
	tracks []seriesTrack
	// tracked mirrors reg.count at the last extend, so Sample can detect
	// late registrations with one atomic load.
	tracked int64
	// samples is the lifetime Sample count; sample i (0-based) lands at
	// ring slot i%cap, so the retained window is [samples-min(samples,cap),
	// samples).
	samples int

	samplesTotal *Counter
	tracksGauge  *Gauge
}

// TrackRef identifies one tracked metric series inside a Series.
type TrackRef int

// TrackInfo describes one tracked series (for tooling and dumps).
type TrackInfo struct {
	Name   string
	Labels string // rendered {k="v",...} or ""
	Kind   MetricKind
}

// seriesTrack is one metric's ring. Counters and gauges use values;
// histograms use rows (per-period sparse bucket deltas flattened into
// cap*(buckets+2) cells: cell 0 is the underflow delta, cells 1..buckets
// the in-range buckets, cell buckets+1 the overflow delta) plus sums (the
// per-period sum delta).
type seriesTrack struct {
	m *metric

	// counter state: previous cumulative value.
	lastC uint64
	// values holds counter deltas or gauge points, cap entries.
	values []float64

	// histogram state.
	lastBuckets []uint64 // previous cumulative counts, buckets+2 entries
	lastSum     float64
	rows        []uint32  // cap * (buckets+2) per-period deltas
	sums        []float64 // cap per-period sum deltas
}

// rowWidth is the histogram row stride: under + buckets + over.
func (t *seriesTrack) rowWidth() int { return len(t.lastBuckets) }

// NewSeries builds a time-series store over reg retaining the most recent
// capacity samples per metric. Every metric registered at construction
// time is tracked immediately; metrics registered later are picked up by
// the first Sample after their registration (their rings backfill as
// zeros). NewSeries registers the store's own caer_series_* families into
// reg, so the store accounts for itself like the rest of the spine.
func NewSeries(reg *Registry, capacity int) *Series {
	if reg == nil {
		panic("telemetry: series needs a registry")
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("telemetry: series capacity %d must be positive", capacity))
	}
	s := &Series{reg: reg, cap: capacity}
	s.samplesTotal = reg.Counter("caer_series_samples_total", "per-period time-series samples taken from this registry")
	s.tracksGauge = reg.Gauge("caer_series_tracks", "metric series tracked by the time-series store")
	s.extend()
	return s
}

// Capacity returns the per-track ring capacity.
func (s *Series) Capacity() int { return s.cap }

// Samples returns the lifetime Sample count.
func (s *Series) Samples() int { return s.samples }

// FirstRetained returns the first sample index still held by the rings.
func (s *Series) FirstRetained() int {
	if s.samples > s.cap {
		return s.samples - s.cap
	}
	return 0
}

// Retained returns how many samples the rings currently hold.
func (s *Series) Retained() int { return s.samples - s.FirstRetained() }

// Tracks lists the tracked series in registration order.
//
//caer:alloc
func (s *Series) Tracks() []TrackInfo {
	out := make([]TrackInfo, len(s.tracks))
	for i := range s.tracks {
		out[i] = TrackInfo{Name: s.tracks[i].m.name, Labels: s.tracks[i].m.labels, Kind: s.tracks[i].m.kind}
	}
	return out
}

// Kind returns the tracked series' metric kind.
func (s *Series) Kind(t TrackRef) MetricKind { return s.tracks[t].m.kind }

// Lookup finds the track for metric name with exactly the given labels
// (alternating key, value pairs). Setup/query path: allocates.
func (s *Series) Lookup(name string, kv ...string) (TrackRef, bool) {
	labels := renderLabels(kv)
	for i := range s.tracks {
		if s.tracks[i].m.name == name && s.tracks[i].m.labels == labels {
			return TrackRef(i), true
		}
	}
	return -1, false
}

// extend (re)builds the track table to cover every currently registered
// metric. Cold path by design: it allocates rings; Sample calls it only
// when the registry has grown since the last extend.
//
//caer:cold amortized ring growth when a registry gains tracks, never on the steady-state sample path
func (s *Series) extend() {
	if s.reg == nil {
		panic("telemetry: parsed series is read-only")
	}
	s.reg.mu.Lock()
	ms := make([]*metric, len(s.reg.metrics))
	copy(ms, s.reg.metrics)
	s.reg.mu.Unlock()
	known := len(s.tracks)
	for _, m := range ms[known:] {
		t := seriesTrack{m: m}
		switch m.kind {
		case KindCounter:
			t.values = make([]float64, s.cap)
			t.lastC = m.c.Value()
		case KindGauge:
			t.values = make([]float64, s.cap)
		case KindHistogram:
			w := len(m.h.buckets) + 2
			t.lastBuckets = make([]uint64, w)
			t.rows = make([]uint32, s.cap*w)
			t.sums = make([]float64, s.cap)
			t.lastBuckets[0] = m.h.under.Load()
			for i := range m.h.buckets {
				t.lastBuckets[i+1] = m.h.buckets[i].Load()
			}
			t.lastBuckets[w-1] = m.h.over.Load()
			t.lastSum = m.h.Sum()
		default:
			panic(fmt.Sprintf("telemetry: unknown metric kind %d", int(m.kind)))
		}
		s.tracks = append(s.tracks, t)
	}
	s.tracked = s.reg.count.Load()
	s.tracksGauge.Set(float64(len(s.tracks)))
}

// Sample records one period: every counter's delta since the previous
// sample, every gauge's current point, every histogram's bucket deltas.
// Hot path: allocation-free once the track table covers the registry; a
// late registration routes through the cold extend barrier exactly once.
func (s *Series) Sample() {
	if s.reg == nil {
		panic("telemetry: parsed series is read-only")
	}
	if s.reg.count.Load() != s.tracked {
		s.extend()
	}
	idx := s.samples % s.cap
	for i := range s.tracks {
		s.sampleTrack(&s.tracks[i], idx)
	}
	s.samples++
	s.samplesTotal.Inc()
}

// sampleTrack records one track's period sample into ring slot idx.
func (s *Series) sampleTrack(t *seriesTrack, idx int) {
	switch t.m.kind {
	case KindCounter:
		v := t.m.c.Value()
		d := v - t.lastC
		t.lastC = v
		t.values[idx] = float64(d)
	case KindGauge:
		t.values[idx] = t.m.g.Value()
	case KindHistogram:
		h := t.m.h
		w := len(t.lastBuckets)
		row := t.rows[idx*w : (idx+1)*w]
		u := h.under.Load()
		row[0] = uint32(u - t.lastBuckets[0])
		t.lastBuckets[0] = u
		for b := range h.buckets {
			v := h.buckets[b].Load()
			row[b+1] = uint32(v - t.lastBuckets[b+1])
			t.lastBuckets[b+1] = v
		}
		o := h.over.Load()
		row[w-1] = uint32(o - t.lastBuckets[w-1])
		t.lastBuckets[w-1] = o
		sum := h.Sum()
		t.sums[idx] = sum - t.lastSum
		t.lastSum = sum
	default:
		panic(fmt.Sprintf("telemetry: unknown metric kind %d", int(t.m.kind)))
	}
}

// clampWindow resolves a query against the retained ring: it returns the
// first and last (exclusive) sample indices actually covered by asking for
// `window` samples ending at sample index end (exclusive). A window wider
// than the retained history is clamped.
func (s *Series) clampWindow(end, window int) (lo, hi int) {
	if end > s.samples {
		end = s.samples
	}
	first := s.FirstRetained()
	if end < first {
		end = first
	}
	lo = end - window
	if lo < first {
		lo = first
	}
	return lo, end
}

// RateAt returns a counter track's mean per-period rate over the `window`
// samples ending at sample index end (exclusive); Rate is the live variant
// ending at the latest sample. Gauge and histogram tracks return the mean
// of their per-period deltas'... rates are only meaningful for counters;
// RateAt panics on other kinds. Alloc-free.
func (s *Series) RateAt(t TrackRef, end, window int) float64 {
	tr := &s.tracks[t]
	if tr.m.kind != KindCounter {
		panic(fmt.Sprintf("telemetry: Rate on %v track %s", tr.m.kind, tr.m.name))
	}
	lo, hi := s.clampWindow(end, window)
	if hi <= lo {
		return 0
	}
	var sum float64
	for i := lo; i < hi; i++ {
		sum += tr.values[i%s.cap]
	}
	return sum / float64(hi-lo)
}

// Rate is RateAt ending at the latest sample.
//
//caer:hot
func (s *Series) Rate(t TrackRef, window int) float64 {
	return s.RateAt(t, s.samples, window)
}

// MeanAt returns the windowed mean ending at sample index end (exclusive):
// for gauges the mean of the sampled points, for counters the mean
// per-period delta (== RateAt), for histograms the mean observed value
// (sum delta over count delta; 0 when the window saw no observations).
// Alloc-free.
func (s *Series) MeanAt(t TrackRef, end, window int) float64 {
	tr := &s.tracks[t]
	lo, hi := s.clampWindow(end, window)
	if hi <= lo {
		return 0
	}
	switch tr.m.kind {
	case KindCounter, KindGauge:
		var sum float64
		for i := lo; i < hi; i++ {
			sum += tr.values[i%s.cap]
		}
		return sum / float64(hi-lo)
	case KindHistogram:
		w := tr.rowWidth()
		var sum float64
		var count uint64
		for i := lo; i < hi; i++ {
			sum += tr.sums[i%s.cap]
			row := tr.rows[(i%s.cap)*w : (i%s.cap+1)*w]
			for _, d := range row {
				count += uint64(d)
			}
		}
		if count == 0 {
			return 0
		}
		return sum / float64(count)
	default:
		panic(fmt.Sprintf("telemetry: unknown metric kind %d", int(tr.m.kind)))
	}
}

// Mean is MeanAt ending at the latest sample.
//
//caer:hot
func (s *Series) Mean(t TrackRef, window int) float64 {
	return s.MeanAt(t, s.samples, window)
}

// OverShareAt returns, for a histogram track, the fraction of the window's
// observations that exceeded bound — the SLO engine's per-period error
// ratio. An observation counts as over the bound only when its whole
// bucket lies at or above it (the straddling bucket counts as good), so
// the share is a lower bound and never flags on bucket-edge noise.
// Overflow observations always count as over; a window with no
// observations returns 0. Alloc-free.
func (s *Series) OverShareAt(t TrackRef, end, window int, bound float64) float64 {
	tr := &s.tracks[t]
	if tr.m.kind != KindHistogram {
		panic(fmt.Sprintf("telemetry: OverShare on %v track %s", tr.m.kind, tr.m.name))
	}
	h := tr.m.h
	w := tr.rowWidth()
	// First in-range bucket whose lower edge is at or above the bound.
	firstBad := len(h.buckets)
	if bound <= h.min {
		firstBad = 0
	} else if bound < h.max {
		firstBad = int((bound-h.min)/h.width + 0.9999999999)
	}
	lo, hi := s.clampWindow(end, window)
	var bad, total uint64
	for i := lo; i < hi; i++ {
		row := tr.rows[(i%s.cap)*w : (i%s.cap+1)*w]
		for b, d := range row {
			total += uint64(d)
			// row cell 0 is the underflow bucket (never bad: it sits at
			// min); cells 1..buckets map to in-range buckets 0..buckets-1;
			// the last cell is overflow (always bad).
			if b == w-1 || (b > 0 && b-1 >= firstBad) {
				bad += uint64(d)
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total)
}

// OverShare is OverShareAt ending at the latest sample.
//
//caer:hot
func (s *Series) OverShare(t TrackRef, window int, bound float64) float64 {
	return s.OverShareAt(t, s.samples, window, bound)
}

// QuantileOverAt rebuilds the window's observation distribution ending at
// sample index end (exclusive) and returns its q-quantile (0 when the
// window saw no observations). Query path: allocates a stats.Histogram —
// per-period consumers use OverShareAt instead.
//
//caer:alloc
func (s *Series) QuantileOverAt(t TrackRef, end, window int, q float64) float64 {
	h := s.WindowHistogramAt(t, end, window)
	if h.N() == 0 {
		return 0
	}
	return h.Quantile(q)
}

// QuantileOver is QuantileOverAt ending at the latest sample.
//
//caer:alloc
func (s *Series) QuantileOver(t TrackRef, window int, q float64) float64 {
	return s.QuantileOverAt(t, s.samples, window, q)
}

// WindowHistogramAt rebuilds a histogram track's windowed distribution as
// a stats.Histogram with the track's geometry. Query path: allocates.
//
//caer:alloc
func (s *Series) WindowHistogramAt(t TrackRef, end, window int) *stats.Histogram {
	tr := &s.tracks[t]
	if tr.m.kind != KindHistogram {
		panic(fmt.Sprintf("telemetry: WindowHistogram on %v track %s", tr.m.kind, tr.m.name))
	}
	h := tr.m.h
	out := stats.NewHistogram(h.min, h.max, len(h.buckets))
	w := tr.rowWidth()
	lo, hi := s.clampWindow(end, window)
	for i := lo; i < hi; i++ {
		row := tr.rows[(i%s.cap)*w : (i%s.cap+1)*w]
		out.AddN(h.min-h.width, uint64(row[0]))
		for b := 1; b < w-1; b++ {
			out.AddN(h.min+(float64(b-1)+0.5)*h.width, uint64(row[b]))
		}
		out.AddN(h.max, uint64(row[w-1]))
	}
	return out
}

// --- dump format -----------------------------------------------------------

// seriesJSON is the dump envelope: version, geometry, and the retained
// window of every track, oldest sample first.
type seriesJSON struct {
	Version  int         `json:"version"`
	Capacity int         `json:"capacity"`
	Samples  int         `json:"samples"`
	First    int         `json:"first"`
	Tracks   []trackJSON `json:"tracks"`
}

// trackJSON is one track's dump: counters and gauges carry values (deltas
// and points respectively); histograms carry geometry, per-period sparse
// rows of [cell, delta, cell, delta, ...] pairs over the under/buckets/over
// cells, and per-period sum deltas.
type trackJSON struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Kind   string `json:"kind"`

	Values []float64 `json:"values,omitempty"`

	Min     float64    `json:"min,omitempty"`
	Max     float64    `json:"max,omitempty"`
	Buckets int        `json:"buckets,omitempty"`
	Rows    [][]uint32 `json:"rows,omitempty"`
	Sums    []float64  `json:"sums,omitempty"`
}

// WriteDump writes the retained window as a JSON snapshot that ParseSeries
// reads back. Export path: allocates. The encoding is canonical — tracks
// in registration order, rows as strictly increasing sparse pairs — so
// dump -> parse -> dump is byte-identical (FuzzParseSeries pins this).
//
//caer:alloc
func (s *Series) WriteDump(w io.Writer) error {
	first := s.FirstRetained()
	retained := s.samples - first
	d := seriesJSON{Version: 1, Capacity: s.cap, Samples: s.samples, First: first}
	for i := range s.tracks {
		tr := &s.tracks[i]
		tj := trackJSON{Name: tr.m.name, Labels: tr.m.labels, Kind: tr.m.kind.String()}
		switch tr.m.kind {
		case KindCounter, KindGauge:
			tj.Values = make([]float64, retained)
			for k := 0; k < retained; k++ {
				tj.Values[k] = tr.values[(first+k)%s.cap]
			}
		case KindHistogram:
			h := tr.m.h
			tj.Min, tj.Max, tj.Buckets = h.min, h.max, len(h.buckets)
			tj.Rows = make([][]uint32, retained)
			tj.Sums = make([]float64, retained)
			width := tr.rowWidth()
			for k := 0; k < retained; k++ {
				idx := (first + k) % s.cap
				row := tr.rows[idx*width : (idx+1)*width]
				var sparse []uint32
				for c, v := range row {
					if v != 0 {
						sparse = append(sparse, uint32(c), v)
					}
				}
				tj.Rows[k] = sparse
				tj.Sums[k] = tr.sums[idx]
			}
		default:
			panic(fmt.Sprintf("telemetry: unknown metric kind %d", int(tr.m.kind)))
		}
		d.Tracks = append(d.Tracks, tj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// ParseSeries reads a WriteDump snapshot back into a read-only Series:
// queries (and slo.Replay) work exactly as on the live store, but Sample
// panics — a parsed series has no registry behind it. It rejects malformed
// dumps (unknown version or kind, rows out of range or out of order,
// window wider than the capacity) rather than guessing.
func ParseSeries(r io.Reader) (*Series, error) {
	var d seriesJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("telemetry: parse series: %w", err)
	}
	if d.Version != 1 {
		return nil, fmt.Errorf("telemetry: series dump version %d not supported", d.Version)
	}
	if d.Capacity <= 0 || d.Samples < 0 || d.First < 0 || d.First > d.Samples {
		return nil, fmt.Errorf("telemetry: series dump geometry invalid (capacity %d, samples %d, first %d)",
			d.Capacity, d.Samples, d.First)
	}
	retained := d.Samples - d.First
	if retained > d.Capacity {
		return nil, fmt.Errorf("telemetry: series dump retains %d samples over capacity %d", retained, d.Capacity)
	}
	if want := d.Samples - d.Capacity; d.Samples > d.Capacity && d.First != want {
		return nil, fmt.Errorf("telemetry: series dump first %d does not match samples %d - capacity %d",
			d.First, d.Samples, d.Capacity)
	}
	if d.Samples <= d.Capacity && d.First != 0 {
		return nil, fmt.Errorf("telemetry: series dump first %d with unwrapped ring", d.First)
	}
	s := &Series{cap: d.Capacity, samples: d.Samples}
	for _, tj := range d.Tracks {
		if tj.Name == "" {
			return nil, fmt.Errorf("telemetry: series dump track needs a name")
		}
		m := &metric{name: tj.Name, labels: tj.Labels}
		t := seriesTrack{m: m}
		switch tj.Kind {
		case "counter", "gauge":
			m.kind = KindCounter
			if tj.Kind == "gauge" {
				m.kind = KindGauge
			}
			if len(tj.Values) != retained {
				return nil, fmt.Errorf("telemetry: track %s has %d values, want %d", tj.Name, len(tj.Values), retained)
			}
			if tj.Buckets != 0 || tj.Rows != nil || tj.Sums != nil || tj.Min != 0 || tj.Max != 0 {
				return nil, fmt.Errorf("telemetry: track %s mixes %s and histogram fields", tj.Name, tj.Kind)
			}
			t.values = make([]float64, d.Capacity)
			for k, v := range tj.Values {
				t.values[(d.First+k)%d.Capacity] = v
			}
		case "histogram":
			m.kind = KindHistogram
			if tj.Buckets <= 0 || !(tj.Max > tj.Min) {
				return nil, fmt.Errorf("telemetry: track %s has bad histogram geometry [%v,%v)x%d",
					tj.Name, tj.Min, tj.Max, tj.Buckets)
			}
			if len(tj.Rows) != retained || len(tj.Sums) != retained {
				return nil, fmt.Errorf("telemetry: track %s has %d rows/%d sums, want %d",
					tj.Name, len(tj.Rows), len(tj.Sums), retained)
			}
			if tj.Values != nil {
				return nil, fmt.Errorf("telemetry: track %s mixes histogram and values fields", tj.Name)
			}
			width := tj.Buckets + 2
			// The parsed metric carries a real (empty) histogram so the
			// geometry-dependent queries work on the parsed series.
			m.h = &Histogram{min: tj.Min, max: tj.Max,
				width:   (tj.Max - tj.Min) / float64(tj.Buckets),
				buckets: make([]atomic.Uint64, tj.Buckets), self: new(atomic.Uint64)}
			t.lastBuckets = make([]uint64, width)
			t.rows = make([]uint32, d.Capacity*width)
			t.sums = make([]float64, d.Capacity)
			for k, sparse := range tj.Rows {
				if len(sparse)%2 != 0 {
					return nil, fmt.Errorf("telemetry: track %s row %d has odd sparse pair list", tj.Name, k)
				}
				idx := (d.First + k) % d.Capacity
				row := t.rows[idx*width : (idx+1)*width]
				lastCell := -1
				for p := 0; p < len(sparse); p += 2 {
					cell, delta := int(sparse[p]), sparse[p+1]
					if cell >= width || cell <= lastCell || delta == 0 {
						return nil, fmt.Errorf("telemetry: track %s row %d cell %d out of order or range", tj.Name, k, cell)
					}
					row[cell] = delta
					lastCell = cell
				}
				t.sums[idx] = tj.Sums[k]
			}
		default:
			return nil, fmt.Errorf("telemetry: track %s has unknown kind %q", tj.Name, tj.Kind)
		}
		s.tracks = append(s.tracks, t)
	}
	return s, nil
}
