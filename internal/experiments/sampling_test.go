package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"caer/internal/caer"
)

func TestBurstScheduleExtra(t *testing.T) {
	b := burstSchedule{Onsets: []uint64{10, 100}, Length: 5, Rate: 1000}
	cases := []struct{ period, want uint64 }{
		{0, 0}, {10, 0}, {11, 1000}, {13, 3000}, {15, 5000},
		{50, 5000},   // first burst plateaued
		{101, 6000},  // second burst starts on top of the plateau
		{200, 10000}, // both plateaued
	}
	for _, c := range cases {
		if got := b.extra(c.period); got != c.want {
			t.Errorf("extra(%d) = %d, want %d", c.period, got, c.want)
		}
	}
}

// TestSamplingSuiteQuick is the headline gate: the quick sweep must show
// the event-driven modes matching polling's burst coverage at strictly
// fewer probes, with no false flags — the BENCH_sampling.json contract.
func TestSamplingSuiteQuick(t *testing.T) {
	t.Parallel()
	r := regimeRun("sampling", 1, 1).(SamplingReport)
	if err := r.Check(); err != nil {
		var buf bytes.Buffer
		r.Render(&buf)
		t.Fatalf("sweep gate failed: %v\n%s", err, buf.String())
	}
	if len(r.Points) != len(samplingSweepGrid()) {
		t.Fatalf("%d points, want %d", len(r.Points), len(samplingSweepGrid()))
	}
	// Wider adaptive bounds must not probe more than narrower ones, and
	// detection latency must stay monotone with the bound.
	var prev *SamplingPoint
	for i := range r.Points {
		p := &r.Points[i]
		if p.Mode != caer.SamplingAdaptive.String() {
			continue
		}
		if prev != nil {
			if p.Probes > prev.Probes {
				t.Errorf("adaptive max=%d probed %d times, more than max=%d's %d",
					p.MaxInterval, p.Probes, prev.MaxInterval, prev.Probes)
			}
			if p.MaxLatency < prev.MaxLatency {
				t.Errorf("adaptive max=%d worst latency %d beat max=%d's %d",
					p.MaxInterval, p.MaxLatency, prev.MaxInterval, prev.MaxLatency)
			}
		}
		prev = p
	}
	// Interrupt mode sleeps through the gaps: it must both skip probes and
	// record trigger fires for the bursts that woke it.
	last := r.Points[len(r.Points)-1]
	if last.Mode != caer.SamplingInterrupt.String() {
		t.Fatalf("last sweep point is %s, want interrupt", last.Mode)
	}
	if last.Fires == 0 {
		t.Error("interrupt point recorded no trigger fires")
	}
	if last.Skipped == 0 {
		t.Error("interrupt point skipped no probes")
	}
}

func TestSamplingReportRendering(t *testing.T) {
	r := SamplingReport{
		Seed: 3, Bursts: 2, Length: 10, Rate: 100, Periods: 500,
		Points: []SamplingPoint{{
			Mode: "polling", MaxInterval: 1, Probes: 500,
			Flagged: 2, MeanLatency: 3.5, MaxLatency: 5,
		}},
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"polling", "2/2", "3.5", "mean_lat"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered table missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back SamplingReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if back.Points[0].Probes != 500 {
		t.Fatalf("round-trip lost data: %+v", back.Points[0])
	}
}

func TestSamplingCheckRejectsBadSweeps(t *testing.T) {
	good := SamplingReport{Bursts: 2, Points: []SamplingPoint{
		{Mode: "polling", MaxInterval: 1, Probes: 100, Flagged: 2},
		{Mode: "adaptive", MaxInterval: 8, Probes: 40, Flagged: 2},
	}}
	if err := good.Check(); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	missed := good
	missed.Points = []SamplingPoint{good.Points[0], {Mode: "adaptive", MaxInterval: 8, Probes: 40, Flagged: 1}}
	if missed.Check() == nil {
		t.Error("missed burst passed Check")
	}
	costly := good
	costly.Points = []SamplingPoint{good.Points[0], {Mode: "adaptive", MaxInterval: 8, Probes: 100, Flagged: 2}}
	if costly.Check() == nil {
		t.Error("probe count equal to polling passed Check")
	}
	noisy := good
	noisy.Points = []SamplingPoint{good.Points[0], {Mode: "adaptive", MaxInterval: 8, Probes: 40, Flagged: 2, FalseFlags: 1}}
	if noisy.Check() == nil {
		t.Error("false flags passed Check")
	}
}
