// Package mem implements the scaled multicore memory hierarchy that stands
// in for the paper's Intel Core i7 920 (Nehalem): per-core private L1 and L2
// caches and a shared, inclusive, 16-way last-level cache (L3), all
// set-associative with pluggable replacement policies, plus a main-memory
// model with optional bandwidth contention.
//
// Contention in this model is emergent, exactly as on real hardware: two
// reference streams that both exceed their private caches compete for L3
// sets and evict each other's lines, which raises both of their LLC miss
// counts — the signal the CAER heuristics consume.
//
//caer:deterministic
package mem

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Policy selects replacement victims within one cache set. Implementations
// hold per-set state indexed by (set, way).
type Policy interface {
	// Touch records a hit or fill of the given way in the given set.
	Touch(set, way int)
	// Victim returns the way to evict from the set, choosing among all of
	// its ways.
	Victim(set int) int
	// VictimMask returns the way to evict among the ways in mask, which is
	// never empty. For a full mask every policy must choose exactly the
	// way Victim(set) would — the equivalence the full-mask differential
	// pin relies on.
	VictimMask(set int, mask WayMask) int
	// Name identifies the policy in stats output.
	Name() string
}

// lruPolicy implements true LRU with per-line timestamps. Stamps live in one
// flat row-major array: the victim scan is the hottest loop in the whole
// simulator (every LLC miss on a full set runs it), and a flat slice keeps it
// a single bounds-checked stride instead of a pointer chase per way.
type lruPolicy struct {
	stamp []uint64 // sets*ways, row-major by set
	ways  int
	tick  uint64
}

// NewLRU returns a least-recently-used replacement policy for a cache with
// the given geometry.
func NewLRU(sets, ways int) Policy {
	return &lruPolicy{stamp: make([]uint64, sets*ways), ways: ways}
}

func (p *lruPolicy) Name() string { return "lru" }

func (p *lruPolicy) Touch(set, way int) {
	p.tick++
	p.stamp[set*p.ways+way] = p.tick
}

func (p *lruPolicy) Victim(set int) int {
	row := p.stamp[set*p.ways : set*p.ways+p.ways]
	victim := 0
	best := row[0]
	for w := 1; w < len(row); w++ {
		if row[w] < best {
			best = row[w]
			victim = w
		}
	}
	return victim
}

func (p *lruPolicy) VictimMask(set int, mask WayMask) int {
	// Ascending-way scan with a strictly-less comparison: for a full mask
	// this visits the same ways in the same order as Victim(set)
	// and therefore breaks timestamp ties identically (lowest way wins).
	row := p.stamp[set*p.ways : set*p.ways+p.ways]
	victim := -1
	var best uint64
	for mm := mask; mm != 0; mm &= mm - 1 {
		w := bits.TrailingZeros64(uint64(mm))
		if victim < 0 || row[w] < best {
			best = row[w]
			victim = w
		}
	}
	return victim
}

// plruPolicy implements tree pseudo-LRU (the approximation real L3s use).
// Each set keeps ways-1 tree bits; Touch flips bits along the path to the
// accessed way, Victim follows the bits to a leaf.
type plruPolicy struct {
	bits [][]bool
	ways int
}

// NewTreePLRU returns a tree pseudo-LRU policy. ways must be a power of two.
func NewTreePLRU(sets, ways int) Policy {
	if ways&(ways-1) != 0 || ways == 0 {
		panic(fmt.Sprintf("mem: tree PLRU requires power-of-two ways, got %d", ways))
	}
	p := &plruPolicy{bits: make([][]bool, sets), ways: ways}
	for i := range p.bits {
		p.bits[i] = make([]bool, ways-1)
	}
	return p
}

func (p *plruPolicy) Name() string { return "tree-plru" }

func (p *plruPolicy) Touch(set, way int) {
	// Walk from root; at each level, point the bit AWAY from the touched way.
	node := 0
	lo, hi := 0, p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			p.bits[set][node] = true // true: next victim on the right
			node = 2*node + 1
			hi = mid
		} else {
			p.bits[set][node] = false // false: next victim on the left
			node = 2*node + 2
			lo = mid
		}
	}
}

func (p *plruPolicy) VictimMask(set int, mask WayMask) int {
	// Follow the tree; when the leaf lands outside the mask, remap it onto
	// the mask's k-th way. A full mask always takes the first branch, so
	// the choice matches Victim(set) exactly.
	v := p.Victim(set)
	if mask.Has(v) {
		return v
	}
	return mask.NthWay(v % mask.Count())
}

func (p *plruPolicy) Victim(set int) int {
	node := 0
	lo, hi := 0, p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.bits[set][node] { // right
			node = 2*node + 2
			lo = mid
		} else { // left
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// randomPolicy evicts a uniformly random way; cheap and stateless, used as a
// control in replacement-policy ablations.
type randomPolicy struct {
	rng  *rand.Rand
	ways int
}

// NewRandomPolicy returns a random-replacement policy for a cache with the
// given associativity, seeded for reproducibility.
func NewRandomPolicy(ways int, seed int64) Policy {
	return &randomPolicy{rng: rand.New(rand.NewSource(seed)), ways: ways}
}

func (p *randomPolicy) Name() string { return "random" }

func (p *randomPolicy) Touch(set, way int) {}

func (p *randomPolicy) Victim(set int) int {
	return p.rng.Intn(p.ways)
}

func (p *randomPolicy) VictimMask(set int, mask WayMask) int {
	// One rng draw per victim, exactly like Victim: for a full mask the
	// k-th set bit is way k, so the sequence of choices is identical.
	return mask.NthWay(p.rng.Intn(mask.Count()))
}
