package caer

import (
	"fmt"

	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/telemetry"
)

// PartitionActuator is the cache-partitioning member of the response
// family for plain CAER deployments (runner.ModeCAER): instead of halting
// a batch core on DirectivePause, it confines the core's L3 fills to a
// reduced way-mask, so the aggressor keeps running but physically cannot
// evict the latency app's lines outside the confined ways. DirectiveRun
// restores the full mask. The scheduler's LFOC-style clustering response
// (sched.ResponsePartition) generalizes this to multi-app cluster plans;
// this actuator is the minimal per-core form that slots into the existing
// engine/directive machinery unchanged.
type PartitionActuator struct {
	m        *machine.Machine
	confined mem.WayMask
	full     mem.WayMask
	mode     mem.ResizeMode
	applied  []bool // per core: currently confined
}

// NewPartitionActuator builds the actuator. confined must be a non-empty
// strict subset of the machine's L3 ways; mode picks the resize semantics
// (orphan or invalidate) used on every directive transition.
func NewPartitionActuator(m *machine.Machine, confined mem.WayMask, mode mem.ResizeMode) *PartitionActuator {
	ways := m.DomainHierarchy(0).L3().Ways()
	full := mem.FullMask(ways)
	if confined == 0 || confined&^full != 0 || confined == full {
		panic(fmt.Sprintf("caer: confined mask %v must be a non-empty strict subset of %d ways", confined, ways))
	}
	return &PartitionActuator{
		m:        m,
		confined: confined,
		full:     full,
		mode:     mode,
		applied:  make([]bool, m.Cores()),
	}
}

// Actuate implements Actuator (pass it via WithActuator or
// runner.Scenario.Actuator). The runtime re-applies the combined directive
// every period; the applied cache makes the steady state a single compare,
// so the per-period path stays allocation-free and mask resizes only fire
// on directive transitions.
//
//caer:hot
func (p *PartitionActuator) Actuate(core *machine.Core, d comm.Directive) {
	id := core.ID()
	confine := d == comm.DirectivePause
	if p.applied[id] == confine {
		return
	}
	p.applied[id] = confine
	p.resize(id, confine)
}

// resize applies the transition (cold path: transitions are rare relative
// to periods and invalidate-mode resizes may allocate).
//
//caer:cold partition resize is control plane (DESIGN.md §16), reached only when the directive changes
func (p *PartitionActuator) resize(core int, confine bool) {
	mask := p.full
	if confine {
		mask = p.confined
	}
	h := p.m.DomainHierarchy(p.m.DomainOf(core))
	dropped := h.SetL3OwnerMask(p.m.LocalCore(core), mask, p.mode)
	telemetry.PartResizes.Inc()
	if dropped > 0 {
		telemetry.PartInvalidations.Add(uint64(dropped))
	}
}
