package engine

import (
	"testing"

	"pdps/internal/lock"
)

// TestDedupeResourcesInPlace pins the allocation-free contract: the
// output aliases the input's backing array, is sorted, and keeps one
// copy of each resource.
func TestDedupeResourcesInPlace(t *testing.T) {
	rs := []lock.Resource{
		{Class: "b", ID: 2}, {Class: "a", ID: 1}, {Class: "b", ID: 2},
		{Class: "a", ID: 1}, {Class: "a", ID: 3}, {Class: "a", ID: 1},
	}
	out := dedupeResources(rs)
	want := []lock.Resource{{Class: "a", ID: 1}, {Class: "a", ID: 3}, {Class: "b", ID: 2}}
	if len(out) != len(want) {
		t.Fatalf("dedupe = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("dedupe = %v, want %v", out, want)
		}
	}
	if &out[0] != &rs[0] {
		t.Fatal("dedupeResources must compact in place, not allocate")
	}
}
