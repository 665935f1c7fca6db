//go:build race

package lock

// raceEnabled reports whether the race detector built this test
// binary; see race_off_test.go.
const raceEnabled = true
