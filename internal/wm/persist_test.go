package wm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// The TestWAL* tests cover the working-memory half of log recovery:
// the delta encoding internal/storage frames into its WAL segments and
// ApplyLogged, which replays decoded deltas. Framing, checksums and the
// torn-tail policy are tested with the segment reader in storage.

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	s.Insert("part", attrs("id", 1, "status", "ready", "w", 2.5))
	s.Insert("machine", attrs("name", Str("mill #1"), "free", true))
	w3 := s.Insert("part", attrs("id", 2))
	s.Remove(w3.ID)
	s.Insert("part", attrs("id", 3))

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), s.Len())
	}
	for _, orig := range s.All() {
		loaded, ok := got.Get(orig.ID)
		if !ok {
			t.Fatalf("WME %d missing after reload", orig.ID)
		}
		if !loaded.EqualContent(orig) || loaded.TimeTag != orig.TimeTag {
			t.Fatalf("WME %d changed: %v vs %v", orig.ID, loaded, orig)
		}
	}
	// Counters continue: the next insert gets a fresh ID and tag.
	n := got.Insert("part", attrs("id", 9))
	for _, orig := range s.All() {
		if n.ID == orig.ID {
			t.Fatal("reloaded store reused an ID")
		}
		if n.TimeTag <= orig.TimeTag {
			t.Fatal("reloaded store reused a time tag")
		}
	}
}

func TestSnapshotBadInput(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("NOTASNAP")); err == nil {
		t.Fatal("bad magic must error")
	}
	if _, err := ReadSnapshot(strings.NewReader("PD")); err == nil {
		t.Fatal("short header must error")
	}
	// Truncated body.
	s := NewStore()
	s.Insert("a", attrs("v", 1))
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadSnapshot(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated snapshot must error")
	}
}

// TestSnapshotFormatStable loads testdata/snapshot-v1.wm, a snapshot
// holding every value kind, a negative integer and a gap in the ID
// sequence, and requires the decoded store and its re-serialisation to
// match. A change to the snapshot encoding fails here before it can
// strand a data directory written by an earlier build.
func TestSnapshotFormatStable(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot-v1.wm")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{
		1: `(part ^id 1 ^name "axle" ^stage -3)`,
		2: `(tally ^n 0 ^ratio 0.5)`,
		4: `(flag ^none nil ^off false ^on true ^sym ready)`,
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for id, str := range want {
		w, ok := s.Get(id)
		if !ok || w.String() != str {
			t.Fatalf("WME %d = %v, want %s", id, w, str)
		}
	}
	if n := s.Insert("x", nil); n.ID != 5 || n.TimeTag != 5 {
		t.Fatalf("counters not restored: next insert got ID %d tag %d, want 5/5", n.ID, n.TimeTag)
	}
	s.Remove(5)
	var out bytes.Buffer
	if err := s.WriteSnapshot(&out); err != nil {
		t.Fatal(err)
	}
	// The probe insert advanced both counters; everything after them
	// is byte-identical.
	head := len(snapshotMagic) + 16
	if !bytes.Equal(out.Bytes()[head:], raw[head:]) {
		t.Fatal("re-serialised snapshot differs from the stored one")
	}
}

// logDeltas runs ten transactions against live, returning each commit
// delta in its log encoding.
func logDeltas(t *testing.T, live *Store) [][]byte {
	t.Helper()
	var log [][]byte
	for i := 0; i < 10; i++ {
		tx := live.Begin()
		c := tx.ByClass("counter")[0]
		if _, err := tx.Modify(c.ID, assigns("n", i+1)); err != nil {
			t.Fatal(err)
		}
		tx.Insert("log", assigns("step", i, "note", Str("x"), "ok", true))
		if i%3 == 2 {
			logs := tx.ByClass("log")
			if err := tx.Remove(logs[0].ID); err != nil {
				t.Fatal(err)
			}
		}
		d, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, EncodeDelta(nil, d))
	}
	return log
}

func TestWALRecoveryReproducesStore(t *testing.T) {
	// Run a sequence of transactions against a live store while
	// logging, then recover from snapshot + decoded deltas and compare.
	live := NewStore()
	live.Insert("counter", attrs("n", 0))
	var snap bytes.Buffer
	if err := live.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	log := logDeltas(t, live)

	recovered, err := ReadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range log {
		d, err := DecodeDelta(body)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if err := recovered.ApplyLogged(d); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if recovered.Len() != live.Len() {
		t.Fatalf("recovered Len = %d, want %d", recovered.Len(), live.Len())
	}
	for _, orig := range live.All() {
		got, ok := recovered.Get(orig.ID)
		if !ok || !got.EqualContent(orig) || got.TimeTag != orig.TimeTag {
			t.Fatalf("WME %d mismatch after recovery: %v vs %v", orig.ID, got, orig)
		}
	}
	// Counters restored: no ID reuse after recovery.
	n := recovered.Insert("x", nil)
	if _, clash := live.Get(n.ID); clash {
		t.Fatal("recovered store reused an ID")
	}
}

// TestWALTornTailStopsCleanly checks the property recovery's torn-tail
// rule relies on: no proper prefix of a delta record decodes, so a
// record cut short by a crash can never be half-applied.
func TestWALTornTailStopsCleanly(t *testing.T) {
	live := NewStore()
	live.Insert("counter", attrs("n", 0))
	for i, body := range logDeltas(t, live) {
		for cut := 0; cut < len(body); cut++ {
			if _, err := DecodeDelta(body[:cut]); err == nil {
				t.Fatalf("record %d cut at %d/%d decoded", i, cut, len(body))
			}
		}
		if _, err := DecodeDelta(append(body, 0)); err == nil {
			t.Fatalf("record %d with a trailing byte decoded", i)
		}
	}
}

// TestWALRemoveOfAbsentFails covers ApplyLogged against the wrong base:
// both a remove with no target and an add of an ID already present are
// refused, since either means the log does not belong to the store.
func TestWALRemoveOfAbsentFails(t *testing.T) {
	live := NewStore()
	w := live.Insert("a", attrs("v", 1))
	tx := live.Begin()
	if err := tx.Remove(w.ID); err != nil {
		t.Fatal(err)
	}
	d, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewStore().ApplyLogged(d); err == nil {
		t.Fatal("remove of an absent WME must error")
	}

	base := NewStore()
	add := &Delta{Adds: []*WME{base.Insert("a", attrs("v", 2))}}
	if err := base.ApplyLogged(add); err == nil {
		t.Fatal("add of a duplicate WME must error")
	}
	if base.Len() != 1 {
		t.Fatalf("duplicate add changed the store: Len = %d", base.Len())
	}
}

// TestDecodeDeltaCraftedLength is the regression for a length field of
// 2^64-1: converted to int it was -1, passed the bounds check and
// panicked slicing. Every length word is now checked against the bytes
// that remain, so each field of a record set to all ones decodes to an
// error or a value, never a panic.
func TestDecodeDeltaCraftedLength(t *testing.T) {
	s := NewStore()
	w := s.Insert("part", attrs("name", Str("axle"), "n", 1))
	body := EncodeDelta(nil, &Delta{Adds: []*WME{w}})
	// remove count, add count, ID, time tag, then the class length.
	const classLen = 32
	crafted := append([]byte(nil), body...)
	binary.BigEndian.PutUint64(crafted[classLen:], math.MaxUint64)
	if _, err := DecodeDelta(crafted); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("crafted class length: err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	for off := 0; off+8 <= len(body); off++ {
		crafted := append([]byte(nil), body...)
		binary.BigEndian.PutUint64(crafted[off:], math.MaxUint64)
		DecodeDelta(crafted) //nolint:errcheck // must not panic
	}
}

// repeatedAttrWME encodes one WME record whose attribute list names
// ^z and ^a twice each, out of order, as no encoder writes it but a
// hand-made or foreign record might.
func repeatedAttrWME(b []byte) []byte {
	b = appendU64(b, 7) // ID
	b = appendU64(b, 9) // time tag
	b = appendString(b, "c")
	names := []string{"z", "a", "z", "m", "a"}
	vals := []Value{Int(1), Int(2), Int(3), Int(4), Str("x")}
	b = appendU64(b, uint64(len(names)))
	for i, n := range names {
		b = appendString(b, n)
		b = appendValue(b, vals[i])
	}
	return b
}

// repeatedAttrSnapshot is a snapshot holding only repeatedAttrWME.
func repeatedAttrSnapshot() []byte {
	b := append([]byte(nil), snapshotMagic...)
	b = appendU64(b, 7) // next ID
	b = appendU64(b, 9) // clock
	b = appendU64(b, 1) // WME count
	return repeatedAttrWME(b)
}

// TestDecodeRepeatedAttrLastWins: a snapshot or delta record naming an
// attribute twice decodes to the value it names last, as a map filled
// in record order did, and re-encodes each name once, so write → read
// → write stays a fixed point.
func TestDecodeRepeatedAttrLastWins(t *testing.T) {
	const want = `(c ^a "x" ^m 4 ^z 3)`
	body := repeatedAttrWME(appendU64(appendU64(nil, 0), 1)) // no removes, one add
	d, err := DecodeDelta(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Adds[0].String(); got != want {
		t.Errorf("delta add = %s, want %s", got, want)
	}
	s, err := ReadSnapshot(bytes.NewReader(repeatedAttrSnapshot()))
	if err != nil {
		t.Fatal(err)
	}
	w, ok := s.Get(7)
	if !ok || w.String() != want || !w.Attr("z").Equal(Int(3)) || w.TimeTag != 9 {
		t.Fatalf("snapshot WME = %v (found %v), want %s", w, ok, want)
	}
	var first, second bytes.Buffer
	if err := s.WriteSnapshot(&first); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteSnapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) || len(first.Bytes()) >= len(repeatedAttrSnapshot()) {
		t.Fatalf("re-encoding is not a fixed point with each name once: %d, %d bytes from %d", first.Len(), second.Len(), len(repeatedAttrSnapshot()))
	}
}
