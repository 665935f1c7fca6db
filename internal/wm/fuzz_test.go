package wm

import (
	"bytes"
	"testing"
)

// fuzzStore builds a small store with every value type for seeding.
func fuzzStore() *Store {
	s := NewStore()
	s.Insert("part", map[string]Value{"id": Int(1), "stage": Int(0), "name": Str("axle")})
	s.Insert("tally", map[string]Value{"n": Int(0), "ratio": Float(0.5)})
	s.Insert("flag", map[string]Value{"on": Bool(true), "sym": Sym("ready")})
	return s
}

func fuzzSnapshotBytes() []byte {
	var buf bytes.Buffer
	if err := fuzzStore().WriteSnapshot(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzDeltaBytes encodes a delta valid against fuzzStore: it removes
// the first WME and adds a fresh one.
func fuzzDeltaBytes() []byte {
	s := fuzzStore()
	tx := s.Begin()
	if err := tx.Remove(1); err != nil {
		panic(err)
	}
	tx.Insert("part", []AttrValue{{"id", Int(2)}, {"name", Str("gear")}, {"w", Float(1.5)}})
	d, err := tx.Commit()
	if err != nil {
		panic(err)
	}
	return EncodeDelta(nil, d)
}

// FuzzReadSnapshot checks the snapshot reader never panics on
// arbitrary bytes and that anything it accepts re-serializes
// canonically (write → read → write is a fixed point).
func FuzzReadSnapshot(f *testing.F) {
	valid := fuzzSnapshotBytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add(repeatedAttrSnapshot())
	for _, i := range []int{8, 12, 20} {
		if i < len(valid) {
			flipped := append([]byte(nil), valid...)
			flipped[i] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := s.WriteSnapshot(&first); err != nil {
			t.Fatalf("accepted snapshot does not re-serialize: %v", err)
		}
		s2, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized snapshot unreadable: %v", err)
		}
		var second bytes.Buffer
		if err := s2.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("snapshot serialization is not canonical")
		}
	})
}

// FuzzReplayWAL replays one log record body — DecodeDelta then
// ApplyLogged, the working-memory half of recovery — onto a fixed base
// store. It checks neither step panics, that replay is deterministic,
// and that a record that fails to decode leaves the store untouched.
// The record framing around these bodies is fuzzed by FuzzReadSegment
// in internal/storage.
func FuzzReplayWAL(f *testing.F) {
	valid := fuzzDeltaBytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])                           // torn record
	f.Add(append(append([]byte(nil), valid...), 0, 0, 0)) // zero-filled tail
	for _, i := range []int{10, 20, len(valid) - 5} {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x01
		f.Add(flipped)
	}
	base := fuzzSnapshotBytes()
	replay := func(t *testing.T, data []byte) ([]byte, bool, error) {
		s := fuzzStore()
		d, err := DecodeDelta(data)
		if err == nil {
			err = s.ApplyLogged(d)
		}
		var out bytes.Buffer
		if werr := s.WriteSnapshot(&out); werr != nil {
			t.Fatal(werr)
		}
		return out.Bytes(), d != nil, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s1, decoded, err1 := replay(t, data)
		s2, _, err2 := replay(t, data)
		if (err1 == nil) != (err2 == nil) || !bytes.Equal(s1, s2) {
			t.Fatalf("replay not deterministic: %v vs %v", err1, err2)
		}
		if !decoded && !bytes.Equal(s1, base) {
			t.Fatal("undecodable record changed the store")
		}
	})
}
