package caer

// finishTick is a hot root; its snapshot call is a hotpath finding waived
// by a documented suppression on the line above it.
//
//caer:hot
func (e *Engine) finishTick() {
	e.notes = e.notes[:0]
	//caer:allow hotpath one-time diagnostic copy, not per-period
	samples := e.slot.Samples()
	_ = samples
}
