package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// regimeKey identifies one memoized quick-mode regime run.
type regimeKey struct {
	name    string
	seed    int64
	workers int
}

// regimeRuns memoizes quick-mode runs: one singleflight per (name, seed,
// workers), so TestRegimes and the regime-specific tests share a run
// instead of repeating it.
var regimeRuns sync.Map // regimeKey -> func() Result

// regimeRun returns the quick-mode run of the named regime, executing it at
// most once per (seed, workers).
func regimeRun(name string, seed int64, workers int) Result {
	for _, r := range Regimes() {
		if r.Name == name {
			run, _ := regimeRuns.LoadOrStore(regimeKey{name, seed, workers},
				sync.OnceValue(func() Result { return r.Run(seed, true, workers) }))
			return run.(func() Result)()
		}
	}
	panic("experiments: no registered regime " + name)
}

// TestRegimes is the one determinism rule every registered regime obeys:
// at seed 1 in quick mode its gate holds, it renders a summary, its
// artifact round-trips through JSON, and the artifact is byte-identical
// whether multi-domain machines step serially (workers 1) or on a pool
// (workers 4). Under -race the pooled runs double as the stepper's
// data-race audit.
func TestRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("regime suites are slow; skipped in -short")
	}
	for _, r := range Regimes() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			workers := []int{1, 4}
			res := make([]Result, len(workers))
			var wg sync.WaitGroup
			for i, w := range workers {
				wg.Add(1)
				go func(i, w int) {
					defer wg.Done()
					res[i] = regimeRun(r.Name, 1, w)
				}(i, w)
			}
			wg.Wait()

			if err := res[0].Check(); err != nil {
				var text bytes.Buffer
				res[0].Render(&text)
				t.Fatalf("gate failed (claim: %s): %v\n%s", r.Claim, err, text.String())
			}
			var text bytes.Buffer
			if err := res[0].Render(&text); err != nil || text.Len() == 0 {
				t.Fatalf("Render wrote %d bytes, err %v", text.Len(), err)
			}

			artifacts := make([][]byte, len(res))
			for i, x := range res {
				var buf bytes.Buffer
				if err := x.WriteJSON(&buf); err != nil {
					t.Fatalf("workers=%d WriteJSON: %v", workers[i], err)
				}
				artifacts[i] = buf.Bytes()
			}
			// Round trip: decoding into the concrete result type and
			// re-encoding must reproduce the artifact exactly.
			back := reflect.New(reflect.TypeOf(res[0]))
			if err := json.Unmarshal(artifacts[0], back.Interface()); err != nil {
				t.Fatalf("artifact is not valid JSON: %v", err)
			}
			var again bytes.Buffer
			if err := back.Elem().Interface().(Result).WriteJSON(&again); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(again.Bytes(), artifacts[0]) {
				t.Errorf("artifact does not round-trip:\n--- written ---\n%s\n--- re-encoded ---\n%s", artifacts[0], again.Bytes())
			}
			if !bytes.Equal(artifacts[0], artifacts[1]) {
				t.Errorf("BENCH_%s.json differs between workers=1 and workers=4:\n--- serial ---\n%s\n--- pooled ---\n%s",
					r.Name, artifacts[0], artifacts[1])
			}
		})
	}
}

func TestRegimeNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Regimes() {
		if r.Name == "" || r.Claim == "" || r.Run == nil {
			t.Errorf("incomplete regime %+v", r)
		}
		if seen[r.Name] {
			t.Errorf("regime %q registered twice", r.Name)
		}
		seen[r.Name] = true
	}
}
