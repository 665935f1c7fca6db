package engine

import (
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// TestFingerprintsAllocs: the fingerprints of a five-WME instantiation
// (a match-join commit) cost two allocations, the rendered string and
// the slice of its substrings, and equal each WME's String.
func TestFingerprintsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	s := wm.NewStore()
	in := &match.Instantiation{WMEs: []*wm.WME{
		s.Insert("task", map[string]wm.Value{"k": wm.Int(17), "done": wm.Bool(false), "note": wm.Str("say \"hi\"")}),
		s.Insert("ref0", map[string]wm.Value{"k": wm.Int(17), "w": wm.Float(2.5)}),
		s.Insert("ref1", map[string]wm.Value{"k": wm.Int(17), "tag": wm.Sym("ready")}),
		s.Insert("ref2", attrs("k", 17)),
		s.Insert("ref3", attrs("k", 17)),
	}}
	var fps []string
	n := testing.AllocsPerRun(100, func() { fps = fingerprints(in) })
	for i, w := range in.WMEs {
		if fps[i] != w.String() {
			t.Fatalf("fingerprint %d = %q, want %q", i, fps[i], w.String())
		}
	}
	if n > 2 {
		t.Errorf("fingerprints of %d WMEs: %v allocations, want at most 2", len(in.WMEs), n)
	}
}
