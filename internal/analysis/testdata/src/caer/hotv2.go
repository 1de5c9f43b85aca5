package caer

//caer:hot
func (e *Engine) OwnMean() float64 {
	return e.meanOf(len(e.notes))
}

// meanOf is one hop below the hot root OwnMean, which is clean itself:
// still hot, still clean.
func (e *Engine) meanOf(n int) float64 {
	return float64(e.depth(n))
}

// depth is two static hops below the root; its allocation is hot and the
// finding must carry the OwnMean -> meanOf -> depth path.
func (e *Engine) depth(n int) int {
	tmp := make([]int, n) // want hotpath "make() allocates in hot path"
	return len(tmp)
}

type Runtime struct {
	started bool
	scratch []float64
}

// Step is a hot root; start below is a reviewed cold barrier, so the walk
// stops before its allocations.
//
//caer:hot
func (rt *Runtime) Step() {
	if !rt.started {
		rt.start()
	}
}

// start allocates freely: it runs once, behind the cold barrier.
//
//caer:cold one-time lazy setup inside the first Step
func (rt *Runtime) start() {
	rt.started = true
	rt.scratch = make([]float64, 1024)
}
