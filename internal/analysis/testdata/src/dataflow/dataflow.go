// Package dataflowtest is not a lint fixture: it carries no // want
// markers and is never passed to runFixture. It exists so the dataflow
// unit tests can type-check real functions through the normal loader
// and exercise GoCaptured against go/types objects rather than
// hand-built stand-ins.
package dataflowtest

func capture(n int) int {
	m := n
	done := make(chan struct{})
	go func() {
		_ = m
		close(done)
	}()
	<-done
	return n
}
