//go:build !race

package server_test

const raceDetector = false
