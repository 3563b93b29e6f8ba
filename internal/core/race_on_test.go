//go:build race

package core

// raceEnabled reports that the race detector is on: a test that only
// measures steady-state behaviour over hundreds of thousands of queries
// skips itself (the detector slows it some 30×, past the test timeout).
const raceEnabled = true
