package analysis

import (
	"testing"
)

// TestVetRealTreeClean is the acceptance gate: the shipped tree must carry
// zero findings. Any new violation of the paper's invariants fails this
// test (and `go run ./cmd/caer-vet ./...` in make check).
func TestVetRealTreeClean(t *testing.T) {
	root, path, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	findings, err := Vet(root, path, dirs, Analyzers(), nil)
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	for _, f := range findings {
		t.Errorf("real tree finding: %s", f)
	}
}

// TestVetSeededTreeFails is the inverse gate: over the seeded-violation
// testdata module, every analyzer must fire.
func TestVetSeededTreeFails(t *testing.T) {
	dirs, err := ExpandPatterns(testdataRoot(t), []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	findings, err := Vet(testdataRoot(t), "test", dirs, Analyzers(), nil)
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	for _, a := range Analyzers() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s reported nothing over the seeded tree", a.Name)
		}
	}
}

func testdataRoot(t *testing.T) string {
	t.Helper()
	root, _, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	return root + "/internal/analysis/testdata/src"
}
