//go:build !race

package rete

// raceEnabled reports whether the race detector built this test
// binary. The race runtime allocates on its own account, so the
// allocation ceilings run only in non-race builds — CI gives them a
// dedicated job step.
const raceEnabled = false
