package mem

import (
	"fmt"
	"math/bits"
)

// WayMask is a CAT-style capacity bitmask over a cache's ways: bit w set
// means the owner may fill (and select victims from) way w. Lookups hit
// anywhere regardless of masks — partitioning confines allocation, not
// visibility, exactly like hardware way-partitioning (Intel CAT). The
// 64-bit width bounds supported associativity; NewCache rejects wider
// caches.
type WayMask uint64

// FullMask returns the mask covering every way of a ways-wide cache.
func FullMask(ways int) WayMask {
	if ways <= 0 || ways > 64 {
		panic(fmt.Sprintf("mem: way mask needs 1..64 ways, got %d", ways))
	}
	if ways == 64 {
		return ^WayMask(0)
	}
	return WayMask(1)<<ways - 1
}

// ContiguousMask returns the mask covering ways [loWay, hiWay), the shape
// hardware CAT masks are restricted to.
func ContiguousMask(loWay, hiWay int) WayMask {
	if loWay < 0 || hiWay > 64 || loWay >= hiWay {
		panic(fmt.Sprintf("mem: contiguous mask [%d,%d) invalid", loWay, hiWay))
	}
	if hiWay-loWay == 64 {
		return ^WayMask(0)
	}
	return (WayMask(1)<<(hiWay-loWay) - 1) << loWay
}

// Has reports whether way is in the mask.
func (m WayMask) Has(way int) bool { return m>>uint(way)&1 != 0 }

// Count returns the number of ways in the mask.
func (m WayMask) Count() int { return bits.OnesCount64(uint64(m)) }

// NthWay returns the way index of the n-th set bit (0-based, ascending),
// or -1 when the mask has n or fewer bits. Victim selection for
// non-contiguous masks maps a policy's full-range choice through this.
func (m WayMask) NthWay(n int) int {
	for mm := m; mm != 0; mm &= mm - 1 {
		if n == 0 {
			return bits.TrailingZeros64(uint64(mm))
		}
		n--
	}
	return -1
}

// String renders the mask as a hex literal, LSB = way 0.
func (m WayMask) String() string { return fmt.Sprintf("0x%x", uint64(m)) }

// ResizeMode selects what happens to an owner's lines stranded outside its
// new mask when a partition is resized.
//
//caer:enum
type ResizeMode int

const (
	// ResizeOrphan leaves stranded lines valid: they still hit on lookup
	// and are reclaimed lazily as other owners' victim selections evict
	// them. This is what hardware CAT does — masks gate fills, not
	// residency.
	ResizeOrphan ResizeMode = iota
	// ResizeInvalidate drops stranded lines immediately, returning them so
	// an inclusive hierarchy can back-invalidate private copies. Models a
	// partition controller that flushes on reassignment to give the new
	// owner clean capacity at once.
	ResizeInvalidate
)

// String returns the mode name used in telemetry labels and reports.
func (m ResizeMode) String() string {
	switch m {
	case ResizeOrphan:
		return "orphan"
	case ResizeInvalidate:
		return "invalidate"
	default:
		return fmt.Sprintf("ResizeMode(%d)", int(m))
	}
}
