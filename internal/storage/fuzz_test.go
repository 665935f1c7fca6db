package storage

import (
	"bytes"
	"testing"

	"pdps/internal/wm"
)

// fuzzRecord is a firing record whose delta removes one WME and adds
// one carrying every value kind.
func fuzzRecord() *Record {
	s := wm.NewStore()
	gone := s.Insert("part", map[string]wm.Value{"id": wm.Int(1)})
	tx := s.Begin()
	if err := tx.Remove(gone.ID); err != nil {
		panic(err)
	}
	tx.Insert("part", []wm.AttrValue{
		{Name: "id", Val: wm.Int(2)}, {Name: "name", Val: wm.Str("gear")}, {Name: "w", Val: wm.Float(1.5)},
		{Name: "ok", Val: wm.Bool(true)}, {Name: "stage", Val: wm.Sym("ready")},
	})
	d, err := tx.Commit()
	if err != nil {
		panic(err)
	}
	return &Record{Rule: "advance", Inst: "advance#1", WMEs: []string{"(part ^id 1)"}, Delta: d}
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder. No
// checksum stands in front of it here — replication followers decode
// shipped records this way — so every input reaches the delta codec.
// It must never panic, and anything it accepts must re-encode to a
// canonical form (encode → decode → encode is a fixed point).
func FuzzDecodeRecord(f *testing.F) {
	valid := EncodeRecord(nil, fuzzRecord())
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	for _, i := range []int{7, 20, len(valid) - 9} {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x80
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		first := EncodeRecord(nil, r)
		r2, err := DecodeRecord(first)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(first, EncodeRecord(nil, r2)) {
			t.Fatal("record encoding is not canonical")
		}
	})
}

// FuzzReadSegment feeds arbitrary bytes to the segment reader. It must
// never panic, must report a valid prefix no longer than its input,
// and that prefix must read back to the same records on its own —
// which is what recovery relies on when it truncates a torn tail.
func FuzzReadSegment(f *testing.F) {
	valid := appendFrame([]byte(segMagic), EncodeRecord(nil, fuzzRecord()))
	valid = appendFrame(valid, EncodeRecord(nil, &Record{Delta: &wm.Delta{}}))
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(segMagic[:4]))
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), make([]byte, 16)...))
	for _, i := range []int{10, 30, len(valid) - 5} {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := ReadSegment(bytes.NewReader(data))
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		if err != nil {
			return
		}
		again, valid2, err := ReadSegment(bytes.NewReader(data[:valid]))
		if err != nil || valid2 != valid || len(again) != len(recs) {
			t.Fatalf("valid prefix rereads as %d records/%d bytes (%v), want %d/%d",
				len(again), valid2, err, len(recs), valid)
		}
		for i := range recs {
			if !bytes.Equal(EncodeRecord(nil, recs[i]), EncodeRecord(nil, again[i])) {
				t.Fatalf("record %d differs on reread", i)
			}
		}
	})
}
