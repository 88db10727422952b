//go:build race

package server_test

// raceDetector reports that the test binary was built with -race.
const raceDetector = true
