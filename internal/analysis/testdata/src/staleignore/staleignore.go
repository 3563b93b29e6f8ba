// Package staleignore exercises directive hygiene: one live directive
// (its raw finding still fires), one stale line directive (nothing on the
// next line triggers the rule), one stale file-wide directive for a rule
// with no finding anywhere in the file, and one directive naming a rule
// that does not exist.
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

func typo() int {
	//lint:ignore mapitr a misspelt rule name suppresses nothing and is never stale, so only a full run can judge it
	return 7
}
