package runner

import (
	"bytes"
	"encoding/json"
	"testing"

	"caer/internal/caer"
	"caer/internal/sched"
	"caer/internal/spec"
)

// fourDomainScenario is a 4-domain, 16-core scheduled scenario: a latency
// service per domain and a queue of aggressor and quiet jobs, so every
// domain has real per-period engine work for the stepper pool to overlap.
func fourDomainScenario(t *testing.T, seed int64, workers int) Scenario {
	const scale = 8
	shrunk := func(name string) spec.Profile {
		p, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		p.Exec.Instructions /= scale
		return p
	}
	mcf, xal, namd := shrunk("mcf"), shrunk("xalancbmk"), shrunk("namd")
	lbm := fastProfile(t, "lbm", 400_000/scale)
	povray := fastProfile(t, "povray", 400_000/scale)
	return Scenario{
		Latency:        mcf,
		ExtraLatencies: []spec.Profile{xal, namd, xal},
		Mode:           ModeScheduled,
		Heuristic:      caer.HeuristicRule,
		Seed:           seed,
		Domains:        4,
		Cores:          16,
		Jobs:           []spec.Profile{lbm, povray, lbm, lbm, povray, lbm, povray, lbm},
		Sched: sched.Config{
			Policy:         sched.PolicyContentionAware,
			AdmitThreshold: 100,
			AgingBound:     1200,
		},
		MaxPeriods: 200_000,
		Workers:    workers,
	}
}

// marshalComparable renders the fields of a result the determinism
// contract covers as canonical JSON — everything but the Scenario echo,
// which records Workers, and the engine logs.
func marshalComparable(t *testing.T, res Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Periods             uint64
		Completed           bool
		LatencyInstructions uint64
		LatencyMisses       uint64
		BatchInstructions   uint64
		BatchMisses         uint64
		BatchDuty           float64
		ChipUtilization     float64
		JobsCompleted       int
		MaxWait             int
		Migrations          int
		BatchResults        []BatchResult
		SchedDecisions      []sched.Decision
	}{
		res.Periods, res.Completed, res.LatencyInstructions, res.LatencyMisses,
		res.BatchInstructions, res.BatchMisses, res.BatchDuty, res.ChipUtilization,
		res.JobsCompleted, res.MaxWait, res.Migrations, res.BatchResults, res.SchedDecisions,
	})
	if err != nil {
		t.Fatalf("marshal comparable result: %v", err)
	}
	return b
}

// TestScheduledByteIdenticalAcrossWorkers pins the parallel domain
// stepper's determinism contract on the 4-domain, 16-core scheduled
// scenario: stepping the domains serially (Workers=1) or on a pool must
// yield byte-identical results. Under -race the pooled run is also the
// stepper's data-race audit.
func TestScheduledByteIdenticalAcrossWorkers(t *testing.T) {
	serial := Run(fourDomainScenario(t, 7, 1))
	if !serial.Completed || serial.JobsCompleted == 0 {
		t.Fatalf("serial run did not exercise the scenario: completed=%v jobs=%d", serial.Completed, serial.JobsCompleted)
	}
	pooled := Run(fourDomainScenario(t, 7, 4))
	a, b := marshalComparable(t, serial), marshalComparable(t, pooled)
	if !bytes.Equal(a, b) {
		t.Fatalf("Workers=1 and Workers=4 results differ:\n--- serial ---\n%s\n--- pooled ---\n%s", a, b)
	}
}
