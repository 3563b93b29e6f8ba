// Package malformedtest is a simlint fixture: an ignore directive with
// no reason is itself a finding.
package malformedtest

//lint:ignore gospawn
func f() {}
