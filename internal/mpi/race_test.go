//go:build race

package mpi

// raceEnabled reports a build with the race detector, which allocates on
// its own and so blurs a count of the message path's allocations.
const raceEnabled = true
