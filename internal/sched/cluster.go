package sched

import (
	"fmt"

	"caer/internal/mem"
)

// This file is the LFOC-style cache-clustering planner behind the
// partition response family (DESIGN.md §16): co-runners are grouped into
// three cache clusters from the classifier's binary classes — sensitive
// apps get a protected partition aggressors physically cannot evict from,
// aggressors share a confined partition, and everyone else shares the
// default remainder — and the confined allotment shrinks under
// verdict-driven pressure, the partition analogue of red-light/green-light
// throttling.

// ClusterKind labels the cache cluster an app is assigned to.
//
//caer:enum
type ClusterKind int

const (
	// ClusterDefault shares the unreserved middle of the LLC.
	ClusterDefault ClusterKind = iota
	// ClusterProtected holds sensitive apps: their ways are theirs alone.
	ClusterProtected
	// ClusterConfined holds aggressors: they may only fill (and so only
	// fight each other for) the confined low ways.
	ClusterConfined
)

// String names the cluster kind.
func (k ClusterKind) String() string {
	switch k {
	case ClusterDefault:
		return "default"
	case ClusterProtected:
		return "protected"
	case ClusterConfined:
		return "confined"
	default:
		return fmt.Sprintf("ClusterKind(%d)", int(k))
	}
}

// AppClass is the classifier summary the cluster planner consumes for one
// co-runner: its name, whether it is a pinned latency-critical service,
// and the hysteresis-filtered binary classes sched.Classifier maintains.
type AppClass struct {
	Name      string
	Latency   bool // latency-critical service: protected regardless of class
	Aggressor bool
	Sensitive bool
}

// Classify maps one app's summary to its cluster. It is a pure function
// of the summary alone — assignment cannot depend on arrival order or on
// the other apps present (the permutation-invariance property test pins
// this).
func Classify(c AppClass) ClusterKind {
	switch {
	case c.Latency:
		return ClusterProtected
	case c.Sensitive && !c.Aggressor:
		return ClusterProtected
	case c.Aggressor:
		return ClusterConfined
	default:
		return ClusterDefault
	}
}

// ClusterConfig sizes the three partitions of a ways-wide LLC.
type ClusterConfig struct {
	// ProtectedWaysPerApp is granted to each protected app, up to half the
	// cache. Default 4.
	ProtectedWaysPerApp int
	// ConfinedWays is the aggressors' base allotment before pressure
	// shrinks it. Default ways/4.
	ConfinedWays int
	// MinConfinedWays is the floor pressure can never squeeze past.
	// Default 1.
	MinConfinedWays int
	// MaxPressure caps the verdict-driven confinement level. Default
	// ConfinedWays - MinConfinedWays (enough to reach the floor).
	MaxPressure int
	// ResizeMode picks what happens to lines stranded by a resize:
	// mem.ResizeOrphan (the default; hardware-CAT-like lazy reclaim) or
	// mem.ResizeInvalidate (flush-on-reassign).
	ResizeMode mem.ResizeMode
}

func (c ClusterConfig) withDefaults(ways int) ClusterConfig {
	if c.ProtectedWaysPerApp == 0 {
		c.ProtectedWaysPerApp = 4
	}
	if c.ConfinedWays == 0 {
		c.ConfinedWays = ways / 4
		if c.ConfinedWays < 1 {
			c.ConfinedWays = 1
		}
	}
	if c.MinConfinedWays == 0 {
		c.MinConfinedWays = 1
	}
	if c.MaxPressure == 0 {
		c.MaxPressure = c.ConfinedWays - c.MinConfinedWays
		if c.MaxPressure < 0 {
			c.MaxPressure = 0
		}
	}
	return c
}

// ClusterPlan is one domain's partition layout: three disjoint way masks
// that together tile the whole cache (the tiling property test pins this
// for every input). A cluster with no members has a zero mask and its
// ways fold into Default, so no way is ever orphaned by the plan itself.
type ClusterPlan struct {
	Protected mem.WayMask
	Default   mem.WayMask
	Confined  mem.WayMask

	NProtected, NDefault, NConfined int
}

// MaskFor returns the fill mask an owner of the given cluster receives.
// The cluster masks themselves tile the cache disjointly; owner masks are
// unions of them: a protected app fills its reserve AND the shared default
// middle (its reserve is exclusive, but confinement must not cost it the
// capacity it enjoyed alone), bystanders fill only the middle, and
// aggressors only the confined low ways.
func (p ClusterPlan) MaskFor(kind ClusterKind) mem.WayMask {
	switch kind {
	case ClusterProtected:
		return p.Protected | p.Default
	case ClusterConfined:
		return p.Confined
	case ClusterDefault:
		return p.Default
	default:
		panic(fmt.Sprintf("sched: unknown cluster kind %v", kind))
	}
}

// PlanClusters computes the partition layout for one LLC domain: classes
// are the resident apps' summaries, ways the cache associativity, and
// pressure the verdict-driven confinement level in [0, MaxPressure]. The
// plan is a pure function of (classes-as-a-multiset, ways, pressure, cfg):
// sizing consults only cluster member counts, so permuting the class list
// cannot change the layout.
func PlanClusters(classes []AppClass, ways, pressure int, cfg ClusterConfig) ClusterPlan {
	if ways < 4 {
		panic(fmt.Sprintf("sched: cluster planning needs at least 4 ways, got %d", ways))
	}
	cfg = cfg.withDefaults(ways)
	var plan ClusterPlan
	for _, c := range classes {
		switch Classify(c) {
		case ClusterProtected:
			plan.NProtected++
		case ClusterConfined:
			plan.NConfined++
		case ClusterDefault:
			plan.NDefault++
		}
	}
	prot := 0
	if plan.NProtected > 0 {
		prot = plan.NProtected * cfg.ProtectedWaysPerApp
		if max := ways / 2; prot > max {
			prot = max
		}
		if prot < 1 {
			prot = 1
		}
	}
	conf := 0
	if plan.NConfined > 0 {
		conf = cfg.ConfinedWays - pressure
		if conf < cfg.MinConfinedWays {
			conf = cfg.MinConfinedWays
		}
		if max := ways - prot - 1; conf > max {
			conf = max
		}
	}
	// Layout: confined low ways, protected top ways, default the middle.
	// prot <= ways/2 and conf <= ways-prot-1 guarantee a non-empty default
	// and pairwise-disjoint masks whose union is the full mask.
	if conf > 0 {
		plan.Confined = mem.ContiguousMask(0, conf)
	}
	if prot > 0 {
		plan.Protected = mem.ContiguousMask(ways-prot, ways)
	}
	plan.Default = mem.FullMask(ways) &^ plan.Confined &^ plan.Protected
	return plan
}

// Clusterer holds one LLC domain's current plan and recomputes it
// allocation-free every period (caer-vet's hot-path closure covers the
// Rescore path).
type Clusterer struct {
	cfg  ClusterConfig
	ways int
	plan ClusterPlan
}

// NewClusterer builds a planner for a ways-wide LLC.
func NewClusterer(ways int, cfg ClusterConfig) *Clusterer {
	return &Clusterer{cfg: cfg.withDefaults(ways), ways: ways}
}

// Rescore recomputes the plan from the current summaries and pressure,
// returning whether the layout changed. Allocation-free.
func (cl *Clusterer) Rescore(classes []AppClass, pressure int) bool {
	plan := PlanClusters(classes, cl.ways, pressure, cl.cfg)
	if plan == cl.plan {
		return false
	}
	cl.plan = plan
	return true
}

// Plan returns the current layout.
func (cl *Clusterer) Plan() ClusterPlan { return cl.plan }
