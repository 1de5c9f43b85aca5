package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSLORegimeSuite is the SLO ISSUE's headline acceptance check: the
// metrics-fed policy must match or beat least-pressure on the sensitive
// p99 at equal throughput with fresh-view decisions, a total scrape outage
// must degrade to least-pressure exactly, and the alert battery's seeded
// monitor outages must each raise exactly one firing episode with zero
// false positives — the gate caer-bench -suite slo enforces. It reads
// TestRegimes' seed-1 run and also checks the doctor bundle.
func TestSLORegimeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slo regime suite is slow; skipped in -short")
	}
	t.Parallel()
	r := regimeRun("slo", 1, 1).(SLORegime)

	if err := r.Check(); err != nil {
		t.Fatalf("slo gate: %v", err)
	}
	for _, ep := range r.Battery.Episodes {
		if ep.Window < 0 {
			t.Errorf("episode %+v attributed to no seeded window", ep)
		}
		if ep.PeakBurn < 2 {
			t.Errorf("episode %+v fired below the burn threshold", ep)
		}
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, want := range []string{"telemetry", "telemetry-outage", "alert battery"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered output missing %q:\n%s", want, buf.String())
		}
	}

	// The doctor bundle the suite leaves next to the artifact must be
	// complete and non-empty — caer-doctor's whole input contract.
	dir := t.TempDir()
	if err := r.WriteDoctorBundle(dir); err != nil {
		t.Fatalf("WriteDoctorBundle: %v", err)
	}
	for _, name := range []string{
		"SLO_series.json", "SLO_objectives.json", "SLO_events.json", "SLO_trace.json",
	} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil || st.Size() == 0 {
			t.Errorf("bundle file %s missing or empty (err %v)", name, err)
		}
	}
}
