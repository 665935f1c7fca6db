//go:build !race

package lock

// raceEnabled reports whether the race detector built this test
// binary. The race runtime allocates on its own, so allocation
// ceilings run only without it.
const raceEnabled = false
