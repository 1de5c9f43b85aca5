// Package hygiene seeds suppression-hygiene fixtures for the dedicated
// unit test (TestSuppressionHygiene): want comments cannot share a line
// with //caer:allow — the trailing text would parse as the allow's reason
// — so this package stays out of the golden walk.
package hygiene

// mightFail returns an error the caller below discards.
func mightFail() error { return nil }

// reasonless suppresses the discard below but gives no reason: the
// suppression itself becomes a finding.
func reasonless() {
	//caer:allow lockdiscipline
	mightFail()
}

// stale carries an allow that matches nothing: reported only under
// ReportUnusedSuppressions, and only when the named analyzer ran.
func stale() int {
	//caer:allow hotpath long-gone diagnostic copy
	return 1
}

var (
	_ = reasonless
	_ = stale
)

// Directive hygiene. Always findings: an unknown verb, a directive on the
// wrong kind of declaration or on none, and a reason-less barrier (which
// is then not a barrier).

//caer:hott
func misspelled() {}

//caer:enum
func notAType() {}

//caer:cold
func unexplained() {}

// Under ReportUnusedSuppressions: a barrier no hot function calls, and a
// hot root another root already reaches.

//caer:cold runs once at start-up
func setup() {
	//caer:hot
}

//caer:hot
func loop() {
	step()
	unexplained()
}

//caer:hot
func step() {}

var (
	_ = misspelled
	_ = notAType
	_ = setup
	_ = loop
)
