// Package pmu pins the enumswitch count-sentinel exclusion (numEvents).
package pmu

//caer:enum
type Event int

const (
	EventA Event = iota
	EventB
	numEvents
)

var _ = numEvents

func name(e Event) string {
	switch e { // exhaustive without the sentinel: no finding
	case EventA:
		return "a"
	case EventB:
		return "b"
	default:
		return "?"
	}
}

func bad(e Event) string {
	switch e { // want enumswitch "switch over Event is not exhaustive: missing EventB"
	case EventA:
		return "a"
	default:
		return "?"
	}
}
