package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestCache(sets, ways int) *Cache {
	return NewCache(Config{Name: "test", Sets: sets, Ways: ways})
}

func TestNewCacheValidation(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1},
		{Sets: 3, Ways: 1},
		{Sets: -4, Ways: 1},
		{Sets: 4, Ways: 0},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%+v) did not panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := newTestCache(4, 2)
	if c.Lookup(100, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(100, 0, false)
	if !c.Lookup(100, false) {
		t.Fatal("miss after insert")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 2 accesses / 1 hit / 1 miss", s)
	}
}

func TestCacheSetMapping(t *testing.T) {
	c := newTestCache(4, 1)
	// Addresses 0 and 4 map to set 0; with 1 way the second evicts the first.
	c.Insert(0, 0, false)
	ev := c.Insert(4, 0, false)
	if !ev.Valid || ev.Addr != 0 {
		t.Errorf("evicted = %+v, want addr 0", ev)
	}
	if c.Contains(0) {
		t.Error("address 0 still present after conflict eviction")
	}
	if !c.Contains(4) {
		t.Error("address 4 missing after insert")
	}
	// Address 1 maps to set 1: no conflict.
	if ev := c.Insert(1, 0, false); ev.Valid {
		t.Errorf("unexpected eviction %+v inserting into a different set", ev)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := newTestCache(1, 2)
	c.Insert(0, 0, false) // set 0
	c.Insert(1, 0, false)
	c.Lookup(0, false) // make 0 most-recent
	ev := c.Insert(2, 0, false)
	if ev.Addr != 1 {
		t.Errorf("evicted addr = %d, want 1 (LRU)", ev.Addr)
	}
	if !c.Contains(0) || !c.Contains(2) {
		t.Error("expected 0 and 2 resident")
	}
}

func TestCacheCrossEvictionAccounting(t *testing.T) {
	c := newTestCache(1, 2)
	c.Insert(10, 0, false)
	c.Insert(20, 1, false)
	c.Insert(30, 1, false) // evicts owner 0's line -> cross eviction
	s := c.Stats()
	if s.Evictions != 1 || s.CrossEvictions != 1 {
		t.Errorf("evictions=%d cross=%d, want 1,1", s.Evictions, s.CrossEvictions)
	}
	c.Insert(40, 1, false) // evicts an owner-1 line -> same-owner eviction
	s = c.Stats()
	if s.Evictions != 2 || s.CrossEvictions != 1 {
		t.Errorf("evictions=%d cross=%d, want 2,1", s.Evictions, s.CrossEvictions)
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := newTestCache(1, 1)
	c.Insert(5, 0, true) // dirty fill
	ev := c.Insert(6, 0, false)
	if !ev.Dirty {
		t.Error("evicted line should be dirty")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
	// Write hit dirties a clean line.
	c.Insert(7, 0, false)
	c.Lookup(7, true)
	ev = c.Insert(8, 0, false)
	if !ev.Dirty {
		t.Error("write hit did not mark line dirty")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newTestCache(2, 2)
	c.Insert(9, 0, true)
	present, dirty := c.Invalidate(9)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(9) {
		t.Error("line still present after Invalidate")
	}
	present, _ = c.Invalidate(9)
	if present {
		t.Error("second Invalidate reported presence")
	}
	if c.Stats().Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", c.Stats().Invalidations)
	}
}

func TestCacheFlushAndFlushOwner(t *testing.T) {
	c := newTestCache(4, 2)
	c.Insert(0, 0, false)
	c.Insert(1, 1, false)
	c.Insert(2, 0, false)
	c.FlushOwner(0)
	if c.Contains(0) || c.Contains(2) {
		t.Error("owner-0 lines survived FlushOwner(0)")
	}
	if !c.Contains(1) {
		t.Error("owner-1 line lost by FlushOwner(0)")
	}
	c.Flush()
	if c.Contains(1) {
		t.Error("line survived Flush")
	}
}

func TestCacheOwnerOccupancy(t *testing.T) {
	c := newTestCache(8, 2)
	for a := uint64(0); a < 6; a++ {
		c.Insert(a, int(a%2), false)
	}
	occ := c.OwnerOccupancy(2)
	if occ[0] != 3 || occ[1] != 3 {
		t.Errorf("occupancy = %v, want [3 3]", occ)
	}
}

func TestCacheWayPartitioning(t *testing.T) {
	c := newTestCache(1, 4)
	c.SetOwnerMask(0, ContiguousMask(0, 2), ResizeOrphan)
	c.SetOwnerMask(1, ContiguousMask(2, 4), ResizeOrphan)
	// Owner 0 fills its 2 ways then self-evicts; owner 1's lines untouched.
	c.Insert(100, 1, false)
	c.Insert(101, 1, false)
	for a := uint64(0); a < 10; a++ {
		ev := c.Insert(a, 0, false)
		if ev.Valid && ev.Owner == 1 {
			t.Fatalf("partitioned owner 0 evicted owner 1's line %d", ev.Addr)
		}
	}
	if !c.Contains(100) || !c.Contains(101) {
		t.Error("owner 1's lines evicted despite partition")
	}
	c.ClearWayPartitions()
	// Now owner 0 may claim all ways.
	evictedOther := false
	for a := uint64(10); a < 20; a++ {
		if ev := c.Insert(a, 0, false); ev.Valid && ev.Owner == 1 {
			evictedOther = true
		}
	}
	if !evictedOther {
		t.Error("after ClearWayPartitions owner 0 never evicted owner 1")
	}
}

func TestCachePartitionValidation(t *testing.T) {
	c := newTestCache(1, 4)
	bad := [][3]int{{-1, 0, 2}, {0, -1, 2}, {0, 2, 5}, {0, 3, 3}, {0, 3, 2}}
	for _, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetOwnerMask(%d, ContiguousMask(%d, %d)) did not panic", b[0], b[1], b[2])
				}
			}()
			c.SetOwnerMask(b[0], ContiguousMask(b[1], b[2]), ResizeOrphan)
		}()
	}
}

func TestCacheResetStatsKeepsContents(t *testing.T) {
	c := newTestCache(2, 1)
	c.Insert(3, 0, false)
	c.Lookup(3, false)
	c.ResetStats()
	if s := c.Stats(); s.Accesses != 0 || s.Hits != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
	if !c.Contains(3) {
		t.Error("ResetStats dropped contents")
	}
}

func TestCacheHitRate(t *testing.T) {
	var s CacheStats
	if s.HitRate() != 0 {
		t.Error("HitRate of zero stats should be 0")
	}
	s = CacheStats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", s.HitRate())
	}
}

// Property: occupancy never exceeds capacity, per-set residency never
// exceeds associativity, and hits+misses == accesses, under arbitrary
// access streams.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed int64, setsExp, ways uint8, n uint16) bool {
		sets := 1 << (setsExp % 5) // 1..16 sets
		w := int(ways%4) + 1       // 1..4 ways
		c := newTestCache(sets, w)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n%600); i++ {
			addr := uint64(rng.Intn(sets * w * 3))
			owner := rng.Intn(3)
			if !c.Lookup(addr, rng.Intn(4) == 0) {
				c.Insert(addr, owner, false)
			}
			if rng.Intn(10) == 0 {
				c.Invalidate(uint64(rng.Intn(sets * w * 3)))
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			return false
		}
		total := 0
		for _, o := range c.OwnerOccupancy(3) {
			total += o
		}
		return total <= c.LineCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: after Insert(addr), Contains(addr) is true, and an immediate
// Lookup hits.
func TestCacheInsertThenHitProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := newTestCache(16, 4)
		for _, a := range addrs {
			addr := uint64(a)
			if !c.Lookup(addr, false) {
				c.Insert(addr, 0, false)
			}
			if !c.Contains(addr) || !c.Lookup(addr, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
