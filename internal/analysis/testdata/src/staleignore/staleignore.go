// Package staleignore exercises the -audit stale-suppression check: one
// live directive (its raw finding still fires), one stale line directive
// (nothing on the next line triggers the rule), and one stale file-wide
// directive for a rule with no finding anywhere in the file.
package staleignore

//lint:file-ignore unsafeconfine nothing in this file imports unsafe at all

func live() {
	//lint:ignore gospawn fixture keeps a live finding under suppression
	go live()
}

func quiet() int {
	//lint:ignore gospawn this directive went stale when the go statement below was removed
	return 42
}
