//go:build race

package gf256

// raceEnabled reports that the race detector instruments this build.
const raceEnabled = true
