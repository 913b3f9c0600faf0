//go:build race

package bench

// raceEnabled reports a build with the race detector, whose memory
// overhead puts T18's 32,768 sessions past 4.5 GB.
const raceEnabled = true
