package experiments

import (
	"encoding/json"
	"io"
)

// Result is one regime run's outcome. Check enforces the regime's gate
// (nil when its claim holds), Render writes the human-readable summary, and
// WriteJSON writes the machine-readable BENCH_<name>.json artifact. The
// artifact is a pure function of the seed and quick flag: the worker count
// is deliberately never recorded, so byte-comparing artifacts across worker
// counts pins the parallel stepper's determinism contract.
type Result interface {
	Check() error
	Render(io.Writer) error
	WriteJSON(io.Writer) error
}

// Regime is one registered regime suite: a claim that goes beyond the
// paper's figures, and the seeded run that tests it.
type Regime struct {
	// Name is the regime's suite name (caer-bench -suite <name>, and the
	// artifact BENCH_<name>.json).
	Name string
	// Claim is what a passing Check establishes.
	Claim string
	// Run executes the regime. quick shrinks the workload for smoke runs;
	// workers sizes the domain-stepper pool of regimes on multi-domain
	// machines (the others run single-domain machines and ignore it).
	Run func(seed int64, quick bool, workers int) Result
}

// Regimes returns every registered regime, in the order caer-bench -suite
// all runs them.
func Regimes() []Regime {
	return []Regime{
		{
			Name:  "chaos",
			Claim: "every injected fault class fails open under every heuristic: the latency app completes and no engine stays degraded once faults cease (DESIGN.md §8)",
			Run:   func(seed int64, quick bool, _ int) Result { return ChaosSuite(seed, quick) },
		},
		{
			Name:  "sampling",
			Claim: "adaptive and interrupt sampling flag every contention burst polling flags, with no false flags, at strictly fewer probes (DESIGN.md §13)",
			Run:   func(seed int64, quick bool, _ int) Result { return SamplingSuite(seed, quick) },
		},
		{
			Name:  "sched",
			Claim: "contention-aware placement matches or beats round-robin on latency QoS at equal admitted throughput, with no job queued past its aging bound (DESIGN.md §9)",
			Run: func(seed int64, quick bool, workers int) Result {
				return SchedRegimeSuiteWorkers(seed, quick, workers)
			},
		},
		{
			Name:  "fleet",
			Claim: "least-pressure cross-machine placement beats round-robin on the sensitive service's p99 at equal admitted throughput (DESIGN.md §14)",
			Run: func(seed int64, quick bool, workers int) Result {
				return FleetSuiteWorkers(seed, quick, workers)
			},
		},
		{
			Name:  "slo",
			Claim: "telemetry-fed placement matches or beats least-pressure on sensitive p99, a scrape outage degrades to least-pressure exactly, and every seeded violation fires exactly one alert (DESIGN.md §15)",
			Run: func(seed int64, quick bool, workers int) Result {
				return SLOSuiteWorkers(seed, quick, workers)
			},
		},
		{
			Name:  "partition",
			Claim: "way-partitioning beats pure throttling on latency QoS with an earlier batch makespan at equal admitted throughput (DESIGN.md §16)",
			Run: func(seed int64, quick bool, workers int) Result {
				return PartitionSuiteWorkers(seed, quick, workers)
			},
		},
	}
}

// writeJSON encodes v as an indented BENCH_*.json artifact.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
