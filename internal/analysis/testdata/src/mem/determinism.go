// Package mem is a testdata stand-in for the deterministic memory hierarchy.
//
//caer:deterministic
package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

type Cache struct {
	lines map[uint64]int
	heat  float64
}

// dumpLines feeds ordered output straight from a map range: the line order
// changes run to run.
func (c *Cache) dumpLines(sb *strings.Builder) {
	for addr, way := range c.lines { // want determinism "map iteration feeds ordered output"
		fmt.Fprintf(sb, "%x:%d\n", addr, way)
	}
}

// totalHeat accumulates a float in map order: addition is not associative,
// so the sum's bits depend on iteration order.
func (c *Cache) totalHeat(weights map[uint64]float64) float64 {
	for _, w := range weights { // want determinism "not associative"
		c.heat += w
	}
	return c.heat
}

// sortedDump collects keys and sorts before emitting: the sanctioned
// idiom, no finding.
func (c *Cache) sortedDump(sb *strings.Builder) {
	keys := make([]uint64, 0, len(c.lines))
	for addr := range c.lines {
		keys = append(keys, addr)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, addr := range keys {
		fmt.Fprintf(sb, "%x:%d\n", addr, c.lines[addr])
	}
}

// jitter draws from the process-global source, which is shared and
// racily advanced.
func jitter() float64 {
	return rand.Float64() // want determinism "process-global rand.Float64"
}

// seededJitter draws from an explicit seeded source: the convention.
func seededJitter(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}

// collect appends goroutine results into a shared slice: the collection
// order is whatever the scheduler did this run.
func collect(n int) []int {
	var wg sync.WaitGroup
	var out []int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			out = append(out, v) // want determinism "scheduling-dependent"
		}(i)
	}
	wg.Wait()
	return out
}

// collectIndexed writes each result to its own slot: deterministic.
func collectIndexed(n int) []int {
	var wg sync.WaitGroup
	out := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			out[v] = v
		}(i)
	}
	wg.Wait()
	return out
}

var (
	_ = (*Cache).dumpLines
	_ = (*Cache).totalHeat
	_ = (*Cache).sortedDump
	_ = jitter
	_ = seededJitter
	_ = collect
	_ = collectIndexed
)
