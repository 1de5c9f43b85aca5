package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fillOwner warms every way of every set with owner's lines. Addresses are
// set + sets*way so each set's row is fully valid afterwards.
func fillOwner(c *Cache, owner int) {
	for set := 0; set < c.Sets(); set++ {
		for way := 0; way < c.Ways(); way++ {
			addr := uint64(set + c.Sets()*way)
			if !c.Lookup(addr, false) {
				c.Insert(addr, owner, false)
			}
		}
	}
}

func TestSetOwnerMaskOrphanKeepsLines(t *testing.T) {
	c := newTestCache(4, 8)
	fillOwner(c, 0)
	low := ContiguousMask(0, 4)
	if dropped := c.SetOwnerMask(0, low, ResizeOrphan); dropped != nil {
		t.Fatalf("orphan resize returned %d dropped lines, want none", len(dropped))
	}
	if got := c.OwnerMask(0); got != low {
		t.Fatalf("OwnerMask(0) = %v, want %v", got, low)
	}
	// Every previously resident line still hits: masks gate fills, not
	// visibility.
	for set := 0; set < c.Sets(); set++ {
		for way := 0; way < c.Ways(); way++ {
			if addr := uint64(set + c.Sets()*way); !c.Contains(addr) {
				t.Fatalf("orphan resize dropped resident line %#x", addr)
			}
		}
	}
	// The ways outside the mask are exactly the stranded ones.
	if got, want := c.StrandedLines(0), c.Sets()*4; got != want {
		t.Fatalf("StrandedLines(0) = %d, want %d", got, want)
	}
	// New fills land only inside the mask: flood owner 0 with fresh
	// addresses and verify the out-of-mask lines survive untouched.
	for set := 0; set < c.Sets(); set++ {
		for i := 0; i < 16; i++ {
			addr := uint64(set + c.Sets()*(100+i))
			if !c.Lookup(addr, false) {
				c.Insert(addr, 0, false)
			}
		}
	}
	for set := 0; set < c.Sets(); set++ {
		for way := 4; way < c.Ways(); way++ {
			if addr := uint64(set + c.Sets()*way); !c.Contains(addr) {
				t.Fatalf("confined fills evicted out-of-mask line %#x", addr)
			}
		}
	}
}

func TestSetOwnerMaskInvalidateDropsLines(t *testing.T) {
	c := newTestCache(4, 8)
	fillOwner(c, 0)
	for set := 0; set < c.Sets(); set++ { // dirty one out-of-mask line per set
		c.Lookup(uint64(set+c.Sets()*6), true)
	}
	low := ContiguousMask(0, 4)
	dropped := c.SetOwnerMask(0, low, ResizeInvalidate)
	if want := c.Sets() * 4; len(dropped) != want {
		t.Fatalf("invalidate resize dropped %d lines, want %d", len(dropped), want)
	}
	dirty := 0
	for _, ev := range dropped {
		if !ev.Valid || ev.Owner != 0 {
			t.Fatalf("dropped line %+v not a valid owner-0 line", ev)
		}
		if c.Contains(ev.Addr) {
			t.Fatalf("dropped line %#x still resident", ev.Addr)
		}
		if ev.Dirty {
			dirty++
		}
	}
	if dirty != c.Sets() {
		t.Fatalf("dropped %d dirty lines, want %d", dirty, c.Sets())
	}
	if got := c.StrandedLines(0); got != 0 {
		t.Fatalf("StrandedLines(0) = %d after invalidate, want 0", got)
	}
	if got, want := c.Stats().Invalidations, uint64(c.Sets()*4); got != want {
		t.Fatalf("Invalidations = %d, want %d", got, want)
	}
	// In-mask lines are untouched.
	for set := 0; set < c.Sets(); set++ {
		for way := 0; way < 4; way++ {
			if addr := uint64(set + c.Sets()*way); !c.Contains(addr) {
				t.Fatalf("invalidate resize dropped in-mask line %#x", addr)
			}
		}
	}
}

func TestSetOwnerMaskWidensAgain(t *testing.T) {
	c := newTestCache(4, 4)
	c.SetOwnerMask(1, ContiguousMask(0, 2), ResizeOrphan)
	c.SetOwnerMask(1, FullMask(4), ResizeOrphan)
	if got := c.OwnerMask(1); got != FullMask(4) {
		t.Fatalf("OwnerMask after widening = %v", got)
	}
	c.ClearWayPartitions()
	c.SetOwnerMask(2, ContiguousMask(1, 3), ResizeOrphan)
	if got := c.OwnerMask(0); got != FullMask(4) {
		t.Fatalf("unconfined owner mask = %v, want full", got)
	}
}

func TestSetOwnerMaskValidation(t *testing.T) {
	c := newTestCache(4, 8)
	cases := []struct {
		name  string
		owner int
		mask  WayMask
		mode  ResizeMode
	}{
		{"negative owner", -1, FullMask(8), ResizeOrphan},
		{"owner too large", 128, FullMask(8), ResizeOrphan},
		{"zero mask", 0, 0, ResizeOrphan},
		{"mask beyond ways", 0, WayMask(1) << 8, ResizeOrphan},
		{"unknown mode", 0, FullMask(8), ResizeMode(7)},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetOwnerMask did not panic", tc.name)
				}
			}()
			c.SetOwnerMask(tc.owner, tc.mask, tc.mode)
		}()
	}
}

// TestVictimMaskFullEquivalence pins the differential contract every policy
// promises: under a full mask, VictimMask picks exactly the way Victim
// picks, for any interleaving of touches — including rng-draw parity for
// random replacement (two identically seeded instances stay in lockstep
// when one is driven through Victim and the other through VictimMask).
func TestVictimMaskFullEquivalence(t *testing.T) {
	const sets, ways = 8, 8
	builders := map[string]func() Policy{
		"lru":    func() Policy { return NewLRU(sets, ways) },
		"plru":   func() Policy { return NewTreePLRU(sets, ways) },
		"random": func() Policy { return NewRandomPolicy(ways, 7) },
	}
	full := FullMask(ways)
	for name, build := range builders {
		a, b := build(), build()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 4000; i++ {
			set := rng.Intn(sets)
			if rng.Intn(3) > 0 {
				way := rng.Intn(ways)
				a.Touch(set, way)
				b.Touch(set, way)
				continue
			}
			va := a.Victim(set)
			vb := b.VictimMask(set, full)
			if va != vb {
				t.Fatalf("%s: step %d: Victim = %d, VictimMask(full) = %d", name, i, va, vb)
			}
			a.Touch(set, va) // model the fill that follows a victim choice
			b.Touch(set, vb)
		}
	}
}

// TestVictimMaskStaysInMask: for every policy and any non-empty mask, the
// victim is a way the mask permits.
func TestVictimMaskStaysInMask(t *testing.T) {
	const sets, ways = 4, 8
	policies := map[string]Policy{
		"lru":    NewLRU(sets, ways),
		"plru":   NewTreePLRU(sets, ways),
		"random": NewRandomPolicy(ways, 3),
	}
	prop := func(raw uint8, set uint8, touches []uint16) bool {
		mask := WayMask(raw)
		if mask == 0 {
			mask = 1
		}
		s := int(set) % sets
		for name, p := range policies {
			for _, tw := range touches {
				p.Touch(int(tw)%sets, int(tw>>4)%ways)
			}
			if v := p.VictimMask(s, mask); v < 0 || v >= ways || !mask.Has(v) {
				t.Logf("%s: victim %d outside mask %v", name, v, mask)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestConfinementNeverHurtsProtectedOwner replays one fixed trace — a
// sensitive owner with a working set larger than its fair share, against an
// aggressor sweeping the whole cache — under a sequence of progressively
// smaller aggressor masks, and asserts the monotonicity the response family
// banks on: shrinking the aggressor's partition never increases the
// sensitive owner's misses.
func TestConfinementNeverHurtsProtectedOwner(t *testing.T) {
	const sets, ways = 16, 8
	trace := func(rng *rand.Rand) (owner int, addr uint64, write bool) {
		if rng.Intn(2) == 0 {
			return 0, uint64(rng.Intn(sets * ways / 2)), false // sensitive: half the cache
		}
		return 1, uint64(sets*ways + rng.Intn(sets*ways*2)), rng.Intn(4) == 0 // aggressor sweep
	}
	missesWith := func(aggMask WayMask) uint64 {
		c := newTestCache(sets, ways)
		c.SetOwnerMask(0, ContiguousMask(ways/2, ways), ResizeOrphan)
		c.SetOwnerMask(1, aggMask, ResizeOrphan)
		rng := rand.New(rand.NewSource(5))
		var sensMisses uint64
		for i := 0; i < 40_000; i++ {
			owner, addr, write := trace(rng)
			if !c.Lookup(addr, write) {
				c.Insert(addr, owner, write)
				if owner == 0 {
					sensMisses++
				}
			}
		}
		return sensMisses
	}
	prev := missesWith(FullMask(ways))
	for hi := ways; hi > 1; hi-- { // aggressor shrinks 8 -> 1 ways
		cur := missesWith(ContiguousMask(0, hi-1))
		if cur > prev {
			t.Fatalf("shrinking aggressor to %d ways raised sensitive misses %d -> %d", hi-1, prev, cur)
		}
		prev = cur
	}
}

// TestPartitionPathAllocFree pins the per-access allocation contract under
// confinement: mask lookup, the confined free-way scan, and the confined
// victim scan are all on the per-period path and must not allocate.
func TestPartitionPathAllocFree(t *testing.T) {
	c := newTestCache(16, 8)
	c.SetOwnerMask(1, WayMask(0b0011_0110), ResizeOrphan) // non-contiguous
	fillOwner(c, 0)
	var addr uint64
	if n := testing.AllocsPerRun(200, func() {
		addr++
		if !c.Lookup(addr%1024, false) {
			c.Insert(addr%1024, 1, false)
		}
		c.OwnerMask(1)
	}); n != 0 {
		t.Fatalf("confined lookup+insert allocates %v/op, want 0", n)
	}
	lru := NewLRU(16, 8)
	mask := WayMask(0b0101_1010)
	if n := testing.AllocsPerRun(200, func() {
		lru.Touch(3, int(addr)%8)
		lru.VictimMask(3, mask)
		addr++
	}); n != 0 {
		t.Fatalf("lru VictimMask allocates %v/op, want 0", n)
	}
}
