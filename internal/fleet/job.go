package fleet

import (
	"fmt"

	"caer/internal/spec"
)

// JobState is a job's position in the fleet-level lifecycle. It sits above
// sched.JobState: a dispatched fleet job is waiting, running, or — after a
// cross-machine migration withdrew it — re-dispatched inside some
// machine's scheduler.
//
//caer:enum
type JobState int

const (
	// JobQueued means the job sits in the fleet admission queue, not yet
	// assigned to a machine.
	JobQueued JobState = iota
	// JobDispatched means the job has been submitted to a machine's
	// scheduler (it may still be waiting in that machine's queue).
	JobDispatched
	// JobFinished means the job ran to completion on its machine.
	JobFinished
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobDispatched:
		return "dispatched"
	case JobFinished:
		return "finished"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// job is one fleet work item's record, from open-loop arrival to
// completion.
type job struct {
	name string // short benchmark name (series/report key)
	prof spec.Profile
	idx  int // global arrival index: derives footprint base and seed

	state      JobState
	node       int // machine currently holding it (-1 while queued)
	schedID    int // job id inside node's scheduler (-1 while queued)
	arrived    int // fleet tick the job arrived (0-based)
	admitted   uint64 // node period the job left a machine queue for a core
	doneTick   int // fleet tick the job completed (0 = not yet)
	migrations int // cross-machine moves
}

// fifo is a growable FIFO ring of job indices: the fleet admission queue.
// peek/pop/len never allocate; push grows the ring on the cold arrival
// path when needed.
type fifo struct {
	buf   []int
	head  int
	count int
}

func (q *fifo) len() int { return q.count }

func (q *fifo) push(j int) {
	if q.count == len(q.buf) {
		grown := make([]int, 2*len(q.buf)+1)
		for i := 0; i < q.count; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.count)%len(q.buf)] = j
	q.count++
}

// peek returns the head job index without removing it, or -1 when empty.
func (q *fifo) peek() int {
	if q.count == 0 {
		return -1
	}
	return q.buf[q.head]
}

// pop removes and returns the head job index; it panics when empty.
func (q *fifo) pop() int {
	if q.count == 0 {
		panic("fleet: pop from empty queue")
	}
	j := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return j
}
