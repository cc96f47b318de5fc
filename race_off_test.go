//go:build !race

package dais_test

const raceDetector = false
