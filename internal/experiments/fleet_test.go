package experiments

import "testing"

// TestFleetRegimeSuite is the fleet ISSUE's headline acceptance check:
// least-pressure cross-machine placement must strictly beat round-robin on
// the sensitive service's p99 request latency at equal admitted throughput
// — the gate caer-bench -suite fleet enforces — plus the dispatch
// signature behind it. It reads TestRegimes' seed-1 run.
func TestFleetRegimeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet regime suite is slow; skipped in -short")
	}
	t.Parallel()
	r := regimeRun("fleet", 1, 1).(FleetRegime)

	if err := r.Check(); err != nil {
		t.Fatalf("fleet gate: %v", err)
	}
	byName := map[string]FleetPolicyResult{}
	for _, p := range r.Policies {
		byName[p.Name] = p
		if p.Completed != p.Arrivals {
			t.Errorf("%s: completed %d of %d arrivals", p.Name, p.Completed, p.Arrivals)
		}
		if p.Requests == 0 || p.P50 <= 0 || p.P99 < p.P50 {
			t.Errorf("%s: degenerate sensitive-service QoS: requests %d p50 %.0f p99 %.0f",
				p.Name, p.Requests, p.P50, p.P99)
		}
	}
	rr, lp := byName["round-robin"], byName["least-pressure"]
	// The placement signature behind the gate: round-robin spreads jobs
	// over the sensitive machines (the first half), least-pressure keeps
	// nearly all of them on the background machines.
	rrSens, lpSens := 0, 0
	for k := 0; k < r.Machines/2; k++ {
		rrSens += rr.MachineDispatches[k]
		lpSens += lp.MachineDispatches[k]
	}
	if rrSens == 0 {
		t.Errorf("round-robin placed no jobs on sensitive machines: %v", rr.MachineDispatches)
	}
	if lpSens*4 >= rrSens {
		t.Errorf("least-pressure did not steer clear of sensitive machines: %d vs round-robin's %d (%v)",
			lpSens, rrSens, lp.MachineDispatches)
	}
}
