package experiments

import "testing"

// TestPartitionSuite is the response-family acceptance check (DESIGN.md
// §16): against capacity-thief co-runners, the partition response must
// strictly beat both pure-throttling responses on latency-app QoS
// degradation while finishing the batch set earlier, at equal admitted
// throughput — the suite's Check() is the CI gate, so it is asserted
// directly here too, at seed 42, with the duty and makespan ordering
// behind it.
func TestPartitionSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("partition regime suite is slow; skipped in -short")
	}
	t.Parallel()
	r := regimeRun("partition", 42, 1).(PartitionRegime)

	if r.BaselinePeriods == 0 {
		t.Fatal("baseline latency run never completed")
	}
	if err := r.Check(); err != nil {
		t.Fatalf("suite gate: %v", err)
	}

	part, ok := r.Config("partition")
	if !ok {
		t.Fatal("missing partition row")
	}
	// Pure partitioning never pauses a core outright: its duty must exceed
	// every throttling row's (the batch side keeps running, just confined).
	for _, name := range []string{"red-light-green-light", "soft-lock"} {
		thr, ok := r.Config(name)
		if !ok {
			t.Fatalf("missing %s row", name)
		}
		if part.BatchDuty <= thr.BatchDuty {
			t.Errorf("partition batch duty %.4f not above %s at %.4f",
				part.BatchDuty, name, thr.BatchDuty)
		}
	}
	// The hybrid row throttles on top of partitioning, so it can never
	// finish the batch sooner than pure partitioning.
	if hy, ok := r.Config("hybrid"); ok {
		if hy.BatchMakespan < part.BatchMakespan {
			t.Errorf("hybrid makespan %d below pure partition %d", hy.BatchMakespan, part.BatchMakespan)
		}
	} else {
		t.Error("missing hybrid row")
	}
	for _, c := range r.Configs {
		if c.QoSDegradation < 1 {
			t.Errorf("%s: QoS degradation %.4f below 1 (faster than jobs-free baseline?)", c.Name, c.QoSDegradation)
		}
		if c.CPositive == 0 {
			t.Errorf("%s: no contention verdicts — the scenario exercised nothing", c.Name)
		}
	}
}
