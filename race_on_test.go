//go:build race

package proger_test

// raceDetector reports whether the tests were built with -race, under
// which sync.Pool drops a quarter of what is put back, on purpose.
const raceDetector = true
