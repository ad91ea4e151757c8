//go:build !race

package core

// raceEnabled reports that this build carries race-detector
// instrumentation, under which sync.Pool drops pooled values at random.
const raceEnabled = false
