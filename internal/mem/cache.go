package mem

import (
	"fmt"
	"math/bits"
)

// line is one cache line's bookkeeping. Addresses are line-granular: the
// simulator's unit address already names a 64-byte line, so tag == address.
type line struct {
	tag   uint64
	owner int8
	valid bool
	dirty bool
}

// CacheStats aggregates per-cache event counts. Counters are cumulative
// from construction or the last ResetStats.
type CacheStats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	CrossEvictions uint64 // evicted line's owner differed from the inserter
	Writebacks     uint64 // dirty evictions
	Invalidations  uint64 // lines dropped by back-invalidation
}

// HitRate returns Hits/Accesses, or 0 when no accesses occurred.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative cache with line-granular addresses, owner
// tracking (which core/application filled each line) and optional
// way-partitioning. It is not safe for concurrent use; the machine model
// serializes accesses.
type Cache struct {
	name     string
	sets     int
	ways     int
	setMask  uint64
	fullMask WayMask
	lines    []line  // sets*ways, row-major by set
	valid    []int32 // per-set valid-line count; lets Insert skip the free-way scan on full sets
	policy   Policy
	stats    CacheStats
	masks    []WayMask // per-owner fill mask; nil when unpartitioned
	maskUsed bool
}

// Config describes a cache's geometry.
type Config struct {
	Name   string
	Sets   int // must be a power of two
	Ways   int
	Policy Policy // defaults to LRU when nil
}

// NewCache constructs a cache. It panics on invalid geometry so that a
// misconfigured machine fails loudly at construction time.
func NewCache(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %q sets must be a positive power of two, got %d", cfg.Name, cfg.Sets))
	}
	if cfg.Ways <= 0 || cfg.Ways > 64 {
		panic(fmt.Sprintf("mem: cache %q ways must be in 1..64, got %d", cfg.Name, cfg.Ways))
	}
	p := cfg.Policy
	if p == nil {
		p = NewLRU(cfg.Sets, cfg.Ways)
	}
	return &Cache{
		name:     cfg.Name,
		sets:     cfg.Sets,
		ways:     cfg.Ways,
		setMask:  uint64(cfg.Sets - 1),
		fullMask: FullMask(cfg.Ways),
		lines:    make([]line, cfg.Sets*cfg.Ways),
		valid:    make([]int32, cfg.Sets),
		policy:   p,
	}
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineCount returns total capacity in lines.
func (c *Cache) LineCount() int { return c.sets * c.ways }

// Stats returns a copy of the cumulative counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = CacheStats{} }

func (c *Cache) setOf(addr uint64) int { return int(addr & c.setMask) }

func (c *Cache) lineAt(set, way int) *line { return &c.lines[set*c.ways+way] }

// Lookup probes for addr without inserting. On a hit it updates replacement
// state and the dirty bit (for writes) and returns true.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.stats.Accesses++
	set := c.setOf(addr)
	base := set * c.ways
	row := c.lines[base : base+c.ways]
	for w := range row {
		ln := &row[w]
		if ln.valid && ln.tag == addr {
			c.stats.Hits++
			if write {
				ln.dirty = true
			}
			c.policy.Touch(set, w)
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Refresh bumps addr's replacement recency if the line is present, without
// touching hit/miss stats. An inclusive L3 uses this as a temporal hint on
// inner-cache hits: lines that are hot in a private L1/L2 never reach the
// L3 through demand accesses, so without hints they age to LRU and get
// evicted (back-invalidating the private copies) by any cache-hungry
// co-runner — the classic inclusion-victim pathology.
func (c *Cache) Refresh(addr uint64) bool {
	set := c.setOf(addr)
	base := set * c.ways
	row := c.lines[base : base+c.ways]
	for w := range row {
		if row[w].valid && row[w].tag == addr {
			c.policy.Touch(set, w)
			return true
		}
	}
	return false
}

// Contains probes for addr without touching stats or replacement state.
func (c *Cache) Contains(addr uint64) bool {
	set := c.setOf(addr)
	base := set * c.ways
	row := c.lines[base : base+c.ways]
	for w := range row {
		if row[w].valid && row[w].tag == addr {
			return true
		}
	}
	return false
}

// Evicted describes a line displaced by an Insert.
type Evicted struct {
	Addr  uint64
	Owner int
	Dirty bool
	Valid bool // false when the insert filled an empty way
}

// Insert fills addr into the cache on behalf of owner, evicting a victim if
// the set is full. It returns the displaced line so that an inclusive outer
// cache can propagate back-invalidations. Insert does not bump access
// counters; callers pair it with a missed Lookup.
func (c *Cache) Insert(addr uint64, owner int, write bool) Evicted {
	set := c.setOf(addr)
	mask := c.maskOf(owner)
	// Prefer an invalid way within the owner's mask. The per-set valid
	// count skips the scan entirely once the set is full — the steady state
	// for every warm cache (with partitioning the count covers the whole
	// set, so a full count still implies a full mask).
	if int(c.valid[set]) < c.ways {
		base := set * c.ways
		for mm := mask; mm != 0; mm &= mm - 1 {
			w := bits.TrailingZeros64(uint64(mm))
			ln := &c.lines[base+w]
			if !ln.valid {
				*ln = line{tag: addr, owner: int8(owner), valid: true, dirty: write}
				c.valid[set]++
				c.policy.Touch(set, w)
				return Evicted{}
			}
		}
	}
	var w int
	if mask == c.fullMask {
		// Unconfined owners keep the contiguous scan — the hottest loop in
		// the simulator — and full-mask partitions share it, which makes
		// the full-mask differential pin hold by construction.
		w = c.policy.Victim(set)
	} else {
		w = c.policy.VictimMask(set, mask)
	}
	ln := c.lineAt(set, w)
	ev := Evicted{Addr: ln.tag, Owner: int(ln.owner), Dirty: ln.dirty, Valid: true}
	c.stats.Evictions++
	if int(ln.owner) != owner {
		c.stats.CrossEvictions++
	}
	if ln.dirty {
		c.stats.Writebacks++
	}
	*ln = line{tag: addr, owner: int8(owner), valid: true, dirty: write}
	c.policy.Touch(set, w)
	return ev
}

// Invalidate drops addr if present, returning whether it was held and
// whether it was dirty. Used for inclusive back-invalidation.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.setOf(addr)
	if c.valid[set] == 0 {
		return false, false
	}
	base := set * c.ways
	row := c.lines[base : base+c.ways]
	for w := range row {
		ln := &row[w]
		if ln.valid && ln.tag == addr {
			c.stats.Invalidations++
			present, dirty = true, ln.dirty
			*ln = line{}
			c.valid[set]--
			return present, dirty
		}
	}
	return false, false
}

// Flush invalidates every line (stats for invalidations are not bumped; this
// models a context switch / relaunch, not coherence traffic).
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	for i := range c.valid {
		c.valid[i] = 0
	}
}

// FlushOwner invalidates every line belonging to owner. Used when a batch
// application finishes and is relaunched.
func (c *Cache) FlushOwner(owner int) {
	for i := range c.lines {
		if c.lines[i].valid && int(c.lines[i].owner) == owner {
			c.lines[i] = line{}
			c.valid[i/c.ways]--
		}
	}
}

// OwnerOccupancy returns the number of valid lines held per owner id.
// Owners outside [0, maxOwner) are ignored.
func (c *Cache) OwnerOccupancy(maxOwner int) []int {
	occ := make([]int, maxOwner)
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && int(ln.owner) >= 0 && int(ln.owner) < maxOwner {
			occ[ln.owner]++
		}
	}
	return occ
}

// SetOwnerMask restricts owner's fills and victim selection to the ways in
// mask (lookups still hit anywhere). Other owners keep the full mask unless
// also confined. mode picks the fate of owner's lines already resident
// outside the new mask: ResizeOrphan leaves them valid, ResizeInvalidate
// drops them and returns them so an inclusive hierarchy can propagate
// back-invalidations. A zero mask or one with bits beyond the cache's ways
// panics. Resizes are control-plane operations — the per-access path never
// calls this.
func (c *Cache) SetOwnerMask(owner int, mask WayMask, mode ResizeMode) []Evicted {
	if owner < 0 || owner > 127 {
		panic(fmt.Sprintf("mem: partition owner %d out of range", owner))
	}
	if mask == 0 || mask&^c.fullMask != 0 {
		panic(fmt.Sprintf("mem: owner mask %v invalid for %d ways", mask, c.ways))
	}
	if owner >= len(c.masks) {
		grown := make([]WayMask, owner+1)
		for i := range grown {
			grown[i] = c.fullMask
		}
		copy(grown, c.masks)
		c.masks = grown
	}
	c.masks[owner] = mask
	c.maskUsed = true
	switch mode {
	case ResizeOrphan:
		return nil
	case ResizeInvalidate:
		var dropped []Evicted
		for set := 0; set < c.sets; set++ {
			base := set * c.ways
			for w := 0; w < c.ways; w++ {
				if mask.Has(w) {
					continue
				}
				ln := &c.lines[base+w]
				if ln.valid && int(ln.owner) == owner {
					dropped = append(dropped, Evicted{Addr: ln.tag, Owner: owner, Dirty: ln.dirty, Valid: true})
					c.stats.Invalidations++
					*ln = line{}
					c.valid[set]--
				}
			}
		}
		return dropped
	default:
		panic(fmt.Sprintf("mem: unknown resize mode %v", mode))
	}
}

// OwnerMask returns owner's current fill mask (the full mask when
// unconfined).
func (c *Cache) OwnerMask(owner int) WayMask { return c.maskOf(owner) }

// StrandedLines counts owner's valid lines resident outside its current
// mask — orphans left behind by ResizeOrphan resizes, still hittable but
// no longer refillable by their owner.
func (c *Cache) StrandedLines(owner int) int {
	mask := c.maskOf(owner)
	n := 0
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		for w := 0; w < c.ways; w++ {
			if mask.Has(w) {
				continue
			}
			ln := &c.lines[base+w]
			if ln.valid && int(ln.owner) == owner {
				n++
			}
		}
	}
	return n
}

// ClearWayPartitions removes all partitioning.
func (c *Cache) ClearWayPartitions() {
	c.masks = nil
	c.maskUsed = false
}

func (c *Cache) maskOf(owner int) WayMask {
	if !c.maskUsed || owner < 0 || owner >= len(c.masks) {
		return c.fullMask
	}
	return c.masks[owner]
}
