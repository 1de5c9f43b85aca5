package experiments

import "testing"

// TestSchedRegimeSuite is the scheduler's headline acceptance check: on a
// 2-LLC-domain machine at seed 42, contention-aware placement must achieve
// strictly lower latency-app QoS degradation than round-robin at equal
// admitted batch throughput (the regime's Check only requires no worse),
// and the admission queue must never hold a job past its aging bound. It
// also pins the placement signature behind the win.
func TestSchedRegimeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduler regime suite is slow; skipped in -short")
	}
	t.Parallel()
	r := regimeRun("sched", 42, 1).(SchedRegime)

	if r.BaselinePeriods == 0 {
		t.Fatal("baseline latency run never completed")
	}
	if err := r.Check(); err != nil {
		t.Fatalf("sched gate: %v", err)
	}
	byName := map[string]SchedPolicyResult{}
	for _, p := range r.Policies {
		byName[p.Name] = p
		if p.QoSDegradation < 1 {
			t.Errorf("%s: QoS degradation %.4f below 1 (faster than jobs-free baseline?)", p.Name, p.QoSDegradation)
		}
	}
	rr, ca := byName["round-robin"], byName["contention-aware"]
	if !(ca.QoSDegradation < rr.QoSDegradation) {
		t.Errorf("contention-aware QoS degradation %.4f not strictly below round-robin %.4f",
			ca.QoSDegradation, rr.QoSDegradation)
	}
	// The placement signature: contention-aware keeps the latency domain
	// clear of lbm aggressors while round-robin splits admissions.
	if rr.DomainAdmissions[0] == 0 {
		t.Errorf("round-robin placed no jobs on the latency domain: %v", rr.DomainAdmissions)
	}
	if pm := byName["packed+migration"]; pm.Migrations == 0 {
		t.Error("packed+migration row recorded no migrations")
	}
}

// TestSchedCheckRejectsBadRegimes: the gate fails when contention-aware
// placement loses to round-robin, when a policy leaves jobs undrained, or
// when a job waits past the aging bound.
func TestSchedCheckRejectsBadRegimes(t *testing.T) {
	good := SchedRegime{AgingBound: 10, Policies: []SchedPolicyResult{
		{Name: "round-robin", QoSDegradation: 1.2, JobsSubmitted: 2, JobsCompleted: 2},
		{Name: "contention-aware", QoSDegradation: 1.1, JobsSubmitted: 2, JobsCompleted: 2},
	}}
	if err := good.Check(); err != nil {
		t.Fatalf("valid regime rejected: %v", err)
	}
	worse := good
	worse.Policies = []SchedPolicyResult{good.Policies[0], good.Policies[1]}
	worse.Policies[1].QoSDegradation = 1.3
	if worse.Check() == nil {
		t.Error("contention-aware losing to round-robin passed Check")
	}
	undrained := good
	undrained.Policies = []SchedPolicyResult{good.Policies[0], good.Policies[1]}
	undrained.Policies[1].JobsCompleted = 1
	if undrained.Check() == nil {
		t.Error("undrained job set passed Check")
	}
	aged := good
	aged.Policies = []SchedPolicyResult{good.Policies[0], good.Policies[1]}
	aged.Policies[0].MaxWait = 11
	if aged.Check() == nil {
		t.Error("job waiting past the aging bound passed Check")
	}
}
