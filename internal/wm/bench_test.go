package wm

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
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
	upd := assigns("n", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Modify(w.ID, upd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttr looks up every attribute of a tuple, and one absent
// name, by tuple width: "scan" is WME.Attr, "binary" the
// slices.BinarySearchFunc lookup over the same sorted slice, kept as the
// reference the scan has to beat. Names share one length, the scan's
// worst case.
func BenchmarkAttr(b *testing.B) {
	for _, width := range []int{2, 4, 8, 16, 32} {
		m := make(map[string]Value, width)
		names := []string{"zzz"}
		for i := 0; i < width; i++ {
			n := fmt.Sprintf("a%02d", i)
			m[n] = Int(int64(i))
			names = append(names, n)
		}
		w := NewWME("part", m)
		b.Run(fmt.Sprintf("scan/%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, n := range names {
					benchValue = w.Attr(n)
				}
			}
		})
		b.Run(fmt.Sprintf("binary/%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, n := range names {
					if j, ok := slices.BinarySearchFunc(w.attrs, n, func(a attr, n string) int { return strings.Compare(a.name, n) }); ok {
						benchValue = w.attrs[j].val
					}
				}
			}
		})
	}
}

var benchValue Value

func BenchmarkTxnCommit(b *testing.B) {
	s := NewStore()
	base := s.Insert("part", attrs("n", 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		if _, err := tx.Modify(base.ID, assigns("n", i)); err != nil {
			b.Fatal(err)
		}
		tx.Insert("log", assigns("i", i))
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
