// Package comm is a testdata stand-in for the communication table: the
// Directive reaction order all batch applications must honour, the Role of
// a registered application, a Slot whose hot Publish is the single-writer
// append and whose Samples is an allocating snapshot API, and
// error-returning teardown.
package comm

//caer:enum
type Directive int

const (
	DirectiveRun Directive = iota
	DirectivePause
)

//caer:enum
type Role int

const (
	RoleLatency Role = iota
	RoleBatch
)

// Slot exports raw state so non-comm testdata can break single-writer access.
type Slot struct {
	Raw []float64
	Dir Directive
}

//caer:hot
func (s *Slot) Publish(v float64) {
	if len(s.Raw) > 0 {
		s.Raw[0] = v
	}
}

//caer:alloc
func (s *Slot) Samples() []float64 {
	out := make([]float64, len(s.Raw))
	copy(out, s.Raw)
	return out
}

// Close tears the slot down and can report corruption.
func (s *Slot) Close() error { return nil }
