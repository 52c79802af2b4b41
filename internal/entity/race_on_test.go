//go:build race

package entity

// raceDetector reports whether the tests were built with -race, under
// which sync.Pool drops a quarter of what is put back, on purpose.
const raceDetector = true
