//go:build !race

package entity

const raceDetector = false
