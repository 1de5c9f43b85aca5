// Package comm implements the CAER communication table: the shared
// structure through which the cooperating CAER virtual layers exchange
// per-period PMU samples and reaction directives (paper §3.2, Figure 4).
//
// Each registered application owns one slot. The slot's sample window is
// single-writer (the CAER layer under that application publishes its own
// LLC-miss samples); directives are written by the CAER engines and must be
// honoured by every batch application. Table is safe for concurrent use;
// ShmTable additionally backs the same layout with a memory-mapped file so
// separate processes can cooperate, as in the paper's deployment.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"caer/internal/stats"
	"caer/internal/telemetry"
)

// Role classifies an application the way the paper's data centers do.
//
//caer:enum
type Role int

const (
	// RoleLatency marks a latency-sensitive application: monitored, never
	// modified.
	RoleLatency Role = iota
	// RoleBatch marks a throughput-oriented batch application: monitored
	// and throttled.
	RoleBatch
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleLatency:
		return "latency-sensitive"
	case RoleBatch:
		return "batch"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Directive is a reaction order recorded in the table. All batch
// applications must adhere to the current directive (paper §3.2).
//
//caer:enum
type Directive int

const (
	// DirectiveRun lets the batch application execute at full speed.
	DirectiveRun Directive = iota
	// DirectivePause halts the batch application for the coming period(s).
	DirectivePause
)

// String returns the directive name.
func (d Directive) String() string {
	switch d {
	case DirectiveRun:
		return "run"
	case DirectivePause:
		return "pause"
	default:
		return fmt.Sprintf("Directive(%d)", int(d))
	}
}

// Slot is one application's region of the table.
type Slot struct {
	id    int
	name  string
	role  Role
	table *Table

	mu        sync.Mutex
	window    *stats.Window
	directive Directive
	published uint64 // publish sequence number (samples over the lifetime)
	// due is the expected table period of the owner's next publish, as
	// declared by its latest publish/cadence declaration; 0 = never
	// published. For the default cadence of 1 it equals the publish period
	// plus 1, which is why StalePeriods can measure lateness against the
	// declared cadence with no extra state: a slot is stale only once the
	// table clock passes due.
	due uint64
}

// ID returns the slot index within its table.
func (s *Slot) ID() int { return s.id }

// Name returns the application name.
func (s *Slot) Name() string { return s.name }

// Role returns the application class.
func (s *Slot) Role() Role { return s.role }

// Publish appends one per-period sample (LLC misses during the period) to
// the slot's window, advances the slot's publish sequence number, and
// declares the next publish due in the following period (cadence 1). Only
// the owning CAER layer calls Publish.
func (s *Slot) Publish(llcMisses float64) {
	s.PublishWithCadence(llcMisses, 1)
}

// PublishWithCadence is Publish with an explicit cadence declaration: the
// owner commits to publishing again within cadence table periods. A sampling
// controller that deliberately skips probes declares its widened interval
// here (or re-stamps it with DeclareCadence) so that StalePeriods — and the
// engine watchdogs consuming it — measure lateness against the declared
// schedule rather than flagging every intentional skip as a dead publisher.
// A cadence of 0 is treated as 1.
func (s *Slot) PublishWithCadence(llcMisses float64, cadence uint64) {
	if cadence == 0 {
		cadence = 1
	}
	telemetry.CommPublishes.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.window.Push(llcMisses)
	s.published++
	s.due = s.table.period.Load() + cadence
}

// DeclareCadence re-stamps the slot's expected next publish to cadence
// table periods from now, without publishing a sample. The deployment's
// sampling controller calls it after deciding the next probe interval —
// the decision lands after the period's publishes, so the publish itself
// cannot carry it. A slot that never published stays never-published (its
// staleness remains the table age). A cadence of 0 is treated as 1.
func (s *Slot) DeclareCadence(cadence uint64) {
	if cadence == 0 {
		cadence = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.due == 0 {
		return
	}
	s.due = s.table.period.Load() + cadence
}

// Published returns the slot's publish sequence number (the lifetime
// sample count). A consumer that sees the sequence stand still across its
// own ticks is reading a dead publisher's frozen window.
func (s *Slot) Published() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.published
}

// Seq is Published under its protocol name: the per-slot publish sequence
// number consumers compare across periods to detect a dead publisher.
//
//caer:hot
func (s *Slot) Seq() uint64 { return s.Published() }

// StalePeriods returns how many table periods the slot's owner is overdue:
// 0 while the table clock has not yet passed the declared next-publish
// period, and the overshoot (in whole periods, counting the due period
// itself) once it has. Under the default cadence of 1 this is exactly
// "periods since the last publish" — 0 when the slot published during the
// current period — and a slot that never published reports the full table
// age. Consumers (the CAER engines' watchdogs) treat a slot whose staleness
// keeps growing as a dead publisher and fail open; a publisher honouring a
// declared wider cadence never looks stale. Tables whose period is never
// advanced (BumpPeriod unused) always report 0: staleness detection is
// opt-in per deployment.
func (s *Slot) StalePeriods() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	period := s.table.period.Load()
	if s.due == 0 {
		return period
	}
	if period < s.due {
		return 0
	}
	return period - s.due + 1
}

// WindowMean returns the mean of the sample window (0 when empty).
func (s *Slot) WindowMean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window.Mean()
}

// WindowMeanRange returns the mean of window positions [from, to); see
// stats.Window.MeanRange.
func (s *Slot) WindowMeanRange(from, to int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window.MeanRange(from, to)
}

// WindowLen returns the number of samples currently windowed.
func (s *Slot) WindowLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window.Len()
}

// LastSample returns the most recent sample, or 0 if none.
func (s *Slot) LastSample() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.window.Len() == 0 {
		return 0
	}
	return s.window.Last()
}

// Samples returns a copy of the windowed samples, oldest first.
//
//caer:alloc
func (s *Slot) Samples() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window.Snapshot()
}

// SetDirective records a reaction directive for this slot.
func (s *Slot) SetDirective(d Directive) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.directive = d
}

// Directive returns the current directive.
//
//caer:hot
func (s *Slot) Directive() Directive {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.directive
}

// Table is the in-process communication table.
type Table struct {
	mu         sync.Mutex
	slots      []*Slot
	windowSize int
	// period is the table-wide sampling-period counter, advanced once per
	// period by the deployment's driver (Runtime.Step). It is atomic, not
	// mutex-guarded, because Publish stamps it while holding a slot lock
	// and BroadcastDirective takes slot locks while holding the table lock
	// — a mutex here would invert that order.
	period atomic.Uint64
}

// NewTable constructs a table whose slots hold windowSize samples each.
func NewTable(windowSize int) *Table {
	if windowSize <= 0 {
		panic(fmt.Sprintf("comm: window size must be positive, got %d", windowSize))
	}
	return &Table{windowSize: windowSize}
}

// WindowSize returns the per-slot window capacity.
func (t *Table) WindowSize() int { return t.windowSize }

// BumpPeriod advances the table's sampling-period counter. The deployment
// driver calls it exactly once per period, before the period's publishes,
// so that StalePeriods measures publisher liveness in periods.
func (t *Table) BumpPeriod() { telemetry.CommPeriod.Set(float64(t.period.Add(1))) }

// Period returns the table's current sampling-period counter.
func (t *Table) Period() uint64 { return t.period.Load() }

// Register adds an application and returns its slot.
func (t *Table) Register(name string, role Role) *Slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Slot{
		id:     len(t.slots),
		name:   name,
		role:   role,
		table:  t,
		window: stats.NewWindow(t.windowSize),
	}
	t.slots = append(t.slots, s)
	return s
}

// Slots returns all registered slots in registration order.
//
//caer:alloc
func (t *Table) Slots() []*Slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Slot, len(t.slots))
	copy(out, t.slots)
	return out
}

// SlotsByRole returns the slots with the given role.
//
//caer:alloc
func (t *Table) SlotsByRole(role Role) []*Slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Slot
	for _, s := range t.slots {
		if s.role == role {
			out = append(out, s)
		}
	}
	return out
}

// BroadcastDirective sets d on every batch slot: the paper requires all
// batch processes to react together. It iterates the slot list under the
// table lock rather than taking a snapshot — this runs once per sampling
// period and must not allocate.
func (t *Table) BroadcastDirective(d Directive) {
	telemetry.CommBroadcasts.Inc()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.slots {
		if s.role == RoleBatch {
			s.SetDirective(d)
		}
	}
}
