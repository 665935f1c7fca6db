package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestLogAppendAndQueries(t *testing.T) {
	l := New()
	l.Append(Event{Kind: KindFire, Rule: "a", Inst: "a|1"})
	l.Append(Event{Kind: KindCommit, Rule: "a", Inst: "a|1", WMEs: []string{"(x ^v 1)"}})
	l.Append(Event{Kind: KindAbort, Rule: "b", Detail: "victim"})
	l.Append(Event{Kind: KindCommit, Rule: "b", Inst: "b|2"})
	l.Append(Event{Kind: KindSkip, Rule: "c"})
	l.Append(Event{Kind: KindHalt, Rule: "b"})

	commits := l.Commits()
	if len(commits) != 2 || commits[0].Rule != "a" || commits[1].Rule != "b" {
		t.Fatalf("Commits = %v", commits)
	}
	// Sequence numbers are assigned in order.
	evs := l.Events()
	if len(evs) != 6 {
		t.Fatalf("Events = %d, want 6", len(evs))
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
}

func TestLogRange(t *testing.T) {
	l := New()
	for _, k := range []Kind{KindFire, KindCommit, KindAbort, KindCommit, KindHalt} {
		l.Append(Event{Kind: k, Rule: "r"})
	}
	var seqs []int
	l.Range(2, func(e Event) bool {
		seqs = append(seqs, e.Seq)
		return true
	})
	if len(seqs) != 3 || seqs[0] != 2 || seqs[2] != 4 {
		t.Fatalf("Range(2) visited %v, want [2 3 4]", seqs)
	}
	// fn returning false stops the walk at the first commit.
	var stopped []Kind
	l.Range(0, func(e Event) bool {
		stopped = append(stopped, e.Kind)
		return e.Kind != KindCommit
	})
	if len(stopped) != 2 || stopped[1] != KindCommit {
		t.Fatalf("early stop visited %v, want [fire commit]", stopped)
	}
	// A cursor at or past the end visits nothing.
	for _, from := range []int{5, 9} {
		l.Range(from, func(Event) bool {
			t.Fatalf("Range(%d) visited an event", from)
			return false
		})
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 3, Kind: KindAbort, Rule: "r", Detail: "deadlock"}
	s := e.String()
	if !strings.Contains(s, "abort") || !strings.Contains(s, "deadlock") || !strings.Contains(s, "#3") {
		t.Fatalf("String = %q", s)
	}
	for _, k := range []Kind{KindFire, KindCommit, KindAbort, KindSkip, KindHalt, Kind(99)} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Append(Event{Kind: KindCommit, Rule: "r"})
			}
		}()
	}
	wg.Wait()
	evs := l.Events()
	if len(evs) != 800 {
		t.Fatalf("Events = %d, want 800", len(evs))
	}
	seen := make(map[int]bool)
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}
