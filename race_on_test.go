//go:build race

package dais_test

// raceDetector reports that the race detector is compiled in. Under it
// sync.Pool drops a share of what is put back and every allocation
// carries shadow state, so allocation figures mean something else.
const raceDetector = true
