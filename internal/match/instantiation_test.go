package match

import (
	"testing"

	"pdps/internal/wm"
)

// TestInstantiationKeyAllocs pins Key's cost at one allocation, the
// string, for a five-WME instantiation whose IDs and time tags have
// seven digits — the size a long-running session reaches.
func TestInstantiationKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	r := &Rule{Name: "finish"}
	wmes := make([]*wm.WME, 5)
	for i := range wmes {
		wmes[i] = wm.NewWME("ref", nil)
		wmes[i].ID = 1234567 + int64(i)
		wmes[i].TimeTag = 7654321 + uint64(i)
	}
	const runs = 100
	ins := make([]*Instantiation, runs+1) // AllocsPerRun adds a warm-up call
	for i := range ins {
		ins[i] = &Instantiation{Rule: r, WMEs: wmes}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		ins[next].Key()
		next++
	})
	if allocs != 1 {
		t.Fatalf("Key allocates %.0f times, want 1 (the string)", allocs)
	}
	if want := "finish|1234567@7654321|1234568@7654322|1234569@7654323|1234570@7654324|1234571@7654325"; ins[0].Key() != want {
		t.Fatalf("Key = %q, want %q", ins[0].Key(), want)
	}
}
