//go:build !race

package proger_test

const raceDetector = false
