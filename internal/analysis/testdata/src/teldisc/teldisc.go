// Package teldisc seeds telemetry-discipline fixtures for the name rules:
// family names must be compile-time constants, wherever the registration
// happens, and DESIGN.md §10 must document them (TestMetricNamesDocumented).
package teldisc

import "test/telemetry"

var reg = &telemetry.Registry{}

// Package-level registration with a documented constant name: the
// sanctioned pattern, no finding.
var ticks = reg.Counter("caer_engine_ticks_total")

// A name DESIGN.md does not document: TestMetricNamesDocumented's negative case.
var rogue = reg.Gauge("caer_rogue_gauge")

// setup registers during initialization — placement is fine (not
// hot-reachable) — but the name rules still apply.
func setup(suffix string) {
	_ = reg.Counter("caer_pmu_reads_total")
	_ = reg.Histogram("caer_engine_hold_" + suffix) // want telemetrydiscipline "not a compile-time constant"
}

var (
	_ = ticks
	_ = rogue
	_ = setup
)
