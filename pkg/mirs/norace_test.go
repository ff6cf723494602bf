//go:build !race

package mirs

const raceEnabled = false
