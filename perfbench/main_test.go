package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// shortPair is pair_llc cut down to two apps at a tenth of their length,
// for tests that need whole rounds quickly.
func shortPair(seed int64) *pairWorkload {
	w := newPairLLC(seed)
	w.apps = w.apps[:2]
	for i := range w.apps {
		w.apps[i].Exec.Instructions /= 10
	}
	return w
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{100, 0.9, true}, {99, 0.9, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{21, 0.5, true}, {19, 0.5, false},
	} {
		v, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", c.q*100, c.n, err, c.ok)
		}
		if err == nil {
			if beyond := c.n - int(v); beyond < minTail {
				t.Errorf("p%g of %d samples = %v leaves %d beyond it", c.q*100, c.n, v, beyond)
			}
		}
	}
}

func TestMetricNamesMatchGrammar(t *testing.T) {
	for _, bad := range []string{"", "a b", "lat/ms", "x:y"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("set(%q) did not refuse the name", bad)
				}
			}()
			newMetrics().set(bad, "ms", 1)
		}()
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("BENCHMARK.json metric %q does not match %s", m.Name, metricName)
		}
	}
}

// TestReplayReconciles replays a live co-located scenario layer by layer:
// the replays must match the live counters, and a log with one reference
// dropped must not.
func TestReplayReconciles(t *testing.T) {
	w := shortPair(3)
	sc := scenario{app: 0, mode: modeShutter}
	w.round(newStepTimer())
	size := w.logSizes[sc]
	rec := newRecorder(size.refs, size.periods)
	r := w.build(sc, rec)
	res := w.run(r, newStepTimer())
	if err := rec.finish(); err != nil || len(res.errs) > 0 {
		t.Fatalf("live run: %v %v", err, res.errs)
	}
	if res.relaunches == 0 {
		t.Fatal("the batch never relaunched; the flush path is untested")
	}
	live := r.m.Hierarchy()
	h, _ := replayMem(rec, live.Config(), r.m.PeriodCycles())
	if err := reconcileMem(h, live); err != nil {
		t.Fatalf("full log: %v", err)
	}
	if _, err := replayGens(rec); err != nil {
		t.Fatalf("generators: %v", err)
	}
	st, _, err := replayCaer(rec, modeShutter.heuristic(), w.cfg, res.periods)
	if err != nil || st != res.engine {
		t.Fatalf("engine replay %+v (err %v), live %+v", st, err, res.engine)
	}

	for i, v := range rec.refs {
		if v&relaunchMark == 0 && i > len(rec.refs)/2 {
			rec.refs = append(rec.refs[:i:i], rec.refs[i+1:]...)
			break
		}
	}
	for p := range rec.bounds {
		if rec.bounds[p] > len(rec.refs) {
			rec.bounds[p] = len(rec.refs)
		}
	}
	h, _ = replayMem(rec, live.Config(), r.m.PeriodCycles())
	if err := reconcileMem(h, live); err == nil {
		t.Fatal("a log with one reference dropped reconciled")
	}
}

func TestDigestRepeats(t *testing.T) {
	a := shortPair(5).round(newStepTimer())
	b := shortPair(5).round(newStepTimer())
	if len(a.errs) > 0 || len(b.errs) > 0 {
		t.Fatalf("failures: %v %v", a.errs, b.errs)
	}
	if a.digest != b.digest {
		t.Fatalf("one seed, two digests: %s vs %s", a.digest, b.digest)
	}
	if c := shortPair(6).round(newStepTimer()); c.digest == a.digest {
		t.Fatalf("seeds 5 and 6 gave one digest %s", a.digest)
	}

	fw := newFleetPartition(5)
	fw.horizon = 200
	serial := fw.round(newStepTimer(), 1)
	pooled := fw.round(newStepTimer(), fleetWorkers)
	if len(serial.errs) > 0 {
		t.Fatalf("fleet failures: %v", serial.errs)
	}
	if serial.digest != pooled.digest {
		t.Fatalf("fleet digest at 1 worker %s, at %d workers %s", serial.digest, fleetWorkers, pooled.digest)
	}
}

// TestRunPrintsEveryMetric runs the command end to end on a short budget
// and checks the result line carries exactly the metrics BENCHMARK.json
// lists for the mode.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole rounds")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name string }{"0": b.EndToEnd, "1": b.PerLayer} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "pair_llc", "--seconds", "1", "--trace", trace}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v failed=%d\n%s", trace, res.Correct, res.Failed, out.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("trace %s: metric %s missing", trace, m.Name)
			}
		}
	}
}
