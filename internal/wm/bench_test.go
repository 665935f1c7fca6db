package wm

import (
	"bytes"
	"testing"
)

func BenchmarkInsert(b *testing.B) {
	s := NewStore()
	a := attrs("id", 1, "status", "ready", "w", 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert("part", a)
	}
}

func BenchmarkModify(b *testing.B) {
	s := NewStore()
	w := s.Insert("part", attrs("n", 0))
	upd := attrs("n", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Modify(w.ID, upd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxnCommit(b *testing.B) {
	s := NewStore()
	base := s.Insert("part", attrs("n", 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		if _, err := tx.Modify(base.ID, attrs("n", i)); err != nil {
			b.Fatal(err)
		}
		tx.Insert("log", attrs("i", i))
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRoundTrip(b *testing.B) {
	s := NewStore()
	for i := 0; i < 1000; i++ {
		s.Insert("part", attrs("id", i, "status", "ready"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "wmes")
}

func BenchmarkEncodeDelta(b *testing.B) {
	s := NewStore()
	w := s.Insert("part", attrs("id", 1, "status", "ready"))
	d := &Delta{Adds: []*WME{w}}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = EncodeDelta(buf[:0], d)
	}
}

// BenchmarkIndexLookupVsScan contrasts the secondary index against a
// predicate scan on a 10k-tuple class.
func BenchmarkIndexLookupVsScan(b *testing.B) {
	s := NewStore()
	ix, err := s.CreateIndex("part", "status")
	if err != nil {
		b.Fatal(err)
	}
	statuses := []Value{Sym("raw"), Sym("ready"), Sym("done"), Sym("scrap")}
	for i := 0; i < 10000; i++ {
		s.Insert("part", attrs("id", i, "status", statuses[i%len(statuses)]))
	}
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := ix.Lookup(Sym("ready")); len(got) != 2500 {
				b.Fatalf("got %d", len(got))
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := s.Select("part", AttrEq("status", Sym("ready"))); len(got) != 2500 {
				b.Fatalf("got %d", len(got))
			}
		}
	})
}
