package mem

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignDocMatchesDefaultHierarchy keeps DESIGN.md §6's stated scale
// model honest: the hit latencies, memory latency and channel service time
// it quotes must be the ones DefaultHierarchyConfig actually uses.
func TestDesignDocMatchesDefaultHierarchy(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(raw)), " ")
	re := regexp.MustCompile(`hit latencies (\d+)/(\d+)/(\d+) cycles; memory (\d+) cycles behind a single channel with a (\d+)-cycle service time`)
	m := re.FindStringSubmatch(doc)
	if m == nil {
		t.Fatalf("DESIGN.md no longer states the scale model as %q", re)
	}
	cfg := DefaultHierarchyConfig(2)
	want := []uint64{cfg.L1Latency, cfg.L2Latency, cfg.L3Latency, cfg.Memory.LatencyCycles, cfg.Memory.ServiceCycles}
	names := []string{"L1 hit", "L2 hit", "L3 hit", "memory latency", "memory service"}
	for i, w := range want {
		got, _ := strconv.ParseUint(m[i+1], 10, 64)
		if got != w {
			t.Errorf("DESIGN.md says %s is %d cycles, DefaultHierarchyConfig uses %d", names[i], got, w)
		}
	}
}
