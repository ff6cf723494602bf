//go:build race

package mirs

// raceEnabled trims the heaviest step-level differential cases under the
// race detector.
const raceEnabled = true
