// Package fileignoretest is a simlint fixture: a file-wide suppression
// covers every finding of one rule in the file.
package fileignoretest

//lint:file-ignore gospawn fixture: every goroutine in this file is a test shim

func a() { go b() }

func b() {
	go func() {}()
}
