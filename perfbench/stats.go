package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is the fewest samples that must lie beyond a reported
// percentile. A tail quantile resting on fewer is noise, so percentile
// refuses it rather than report it.
const minTail = 10

// percentile returns the q-quantile (nearest rank) of samples, which it
// sorts in place. It refuses when fewer than minTail samples lie beyond
// the chosen rank.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", q*100)
	}
	sort.Float64s(samples)
	if b := beyond(n, q); b < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", q*100, n, b, minTail)
	}
	return samples[n-1-beyond(n, q)], nil
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - max(int(math.Ceil(q*float64(n))), 1)
}

// median is the 0.5 quantile with linear interpolation, for small sample
// sets (repeated set-ups) where nearest rank would jump between samples.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// metricName is the grammar every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered metric set: insertion order is print order.
type metrics struct {
	names []string
	vals  map[string]metric
	notes map[string]string
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric. A malformed or repeated name, or a value that is
// not a finite number, is a bug in the benchmark, so it panics.
func (m *metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %q is %v", name, v))
	}
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if _, dup := m.vals[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q set twice", name))
	}
	m.names = append(m.names, name)
	m.vals[name] = metric{Value: v, Unit: unit}
}

// note attaches a human-readable remark printed beside the metric.
func (m *metrics) note(name, text string) { m.notes[name] = text }
