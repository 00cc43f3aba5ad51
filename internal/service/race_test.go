//go:build race

package service

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops entries at random, so allocation counts differ from a
// plain build's.
const raceEnabled = true
