package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pdps/internal/wm"
)

// mkRecord builds a commit record by running a transaction against
// the live store, mirroring what the engine's committer does.
func mkRecord(t *testing.T, live *wm.Store, rule string, class string, v int) *Record {
	t.Helper()
	tx := live.Begin()
	tx.Insert(class, []wm.AttrValue{{Name: "v", Val: wm.Int(int64(v))}})
	d, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return &Record{Rule: rule, Inst: fmt.Sprintf("%s#%d", rule, v), WMEs: []string{fmt.Sprintf("fp%d", v)}, Delta: d}
}

func snapshotBytes(t *testing.T, s *wm.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecordCodecRoundTrip(t *testing.T) {
	live := wm.NewStore()
	r := mkRecord(t, live, "move", "part", 7)
	body := EncodeRecord(nil, r)
	got, err := DecodeRecord(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rule != r.Rule || got.Inst != r.Inst || len(got.WMEs) != 1 || got.WMEs[0] != "fp7" {
		t.Fatalf("decoded %+v, want %+v", got, r)
	}
	if len(got.Delta.Adds) != 1 || !got.Delta.Adds[0].EqualContent(r.Delta.Adds[0]) {
		t.Fatalf("delta adds mismatch: %v", got.Delta.Adds)
	}
	if _, err := DecodeRecord(body[:len(body)-2]); err == nil {
		t.Fatal("truncated record must fail decode")
	}
}

func TestMemBackendRoundTrip(t *testing.T) {
	m := NewMem()
	live := wm.NewStore()
	var last LSN
	for i := 0; i < 5; i++ {
		var err error
		last, err = m.Append(mkRecord(t, live, "r", "a", i))
		if err != nil {
			t.Fatal(err)
		}
	}
	if last != 5 {
		t.Fatalf("last LSN = %d, want 5", last)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 5 || len(rec.Records) != 5 {
		t.Fatalf("recovery LSN=%d records=%d", rec.LSN, len(rec.Records))
	}
	if !bytes.Equal(snapshotBytes(t, rec.Store), snapshotBytes(t, live)) {
		t.Fatal("recovered store differs from live store")
	}
	// Checkpoint folds the tail; recovery still reproduces the store.
	if err := m.Checkpoint(live); err != nil {
		t.Fatal(err)
	}
	m.Append(mkRecord(t, live, "r", "a", 9))
	rec2, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec2.SnapshotLSN != 5 || rec2.LSN != 6 || len(rec2.Records) != 1 {
		t.Fatalf("post-checkpoint recovery: %+v", rec2)
	}
	if !bytes.Equal(snapshotBytes(t, rec2.Store), snapshotBytes(t, live)) {
		t.Fatal("post-checkpoint recovered store differs")
	}
}

func TestFileBackendAppendSyncRecover(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live := wm.NewStore()
	for i := 0; i < 10; i++ {
		if _, err := f.Append(mkRecord(t, live, "r", "a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rec, err := g.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 10 || len(rec.Records) != 10 {
		t.Fatalf("recovered LSN=%d records=%d, want 10/10", rec.LSN, len(rec.Records))
	}
	if rec.Records[3].Rule != "r" || rec.Records[3].Inst != "r#3" {
		t.Fatalf("record 3 = %+v", rec.Records[3])
	}
	if !bytes.Equal(snapshotBytes(t, rec.Store), snapshotBytes(t, live)) {
		t.Fatal("recovered store differs from live store")
	}
}

func TestFileBackendSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	f, err := OpenFile(dir, FileOptions{SegmentBytes: 256, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := wm.NewStore()
	for i := 0; i < 50; i++ {
		if _, err := f.Append(mkRecord(t, live, "r", "a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rec, _ := g.Recover()
	if rec.LSN != 50 || len(rec.Records) != 50 {
		t.Fatalf("recovered LSN=%d records=%d", rec.LSN, len(rec.Records))
	}
	if !bytes.Equal(snapshotBytes(t, rec.Store), snapshotBytes(t, live)) {
		t.Fatal("recovered store differs after rotation")
	}
}

func TestFileBackendTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := wm.NewStore()
	for i := 0; i < 3; i++ {
		if _, err := f.Append(mkRecord(t, live, "r", "a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail of the only data segment.
	seg := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rec, _ := g.Recover()
	if rec.LSN != 2 || len(rec.Records) != 2 {
		t.Fatalf("after torn tail: LSN=%d records=%d, want 2/2", rec.LSN, len(rec.Records))
	}
	// The torn bytes are gone from disk.
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(len(raw)-7) {
		t.Fatalf("torn tail not truncated: size %d", fi.Size())
	}
}

func TestFileBackendMidLogCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := wm.NewStore()
	for i := 0; i < 3; i++ {
		if _, err := f.Append(mkRecord(t, live, "r", "a", i)); err != nil {
			t.Fatal(err)
		}
	}
	f.Sync()
	f.Close()
	seg := filepath.Join(dir, segName(1))
	raw, _ := os.ReadFile(seg)
	raw[len(segMagic)+12+4] ^= 0xff // corrupt first record's body
	os.WriteFile(seg, raw, 0o644)
	if _, err := OpenFile(dir, FileOptions{}); err == nil {
		t.Fatal("mid-log corruption must refuse to open")
	}
}

func TestFileBackendCheckpointPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{SegmentBytes: 256, CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	live := wm.NewStore()
	i := 0
	for ; i < 20; i++ {
		if _, err := f.Append(mkRecord(t, live, "r", "a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if !f.CheckpointDue() {
		t.Fatal("checkpoint should be due after 20 records with 512-byte threshold")
	}
	if err := f.Checkpoint(live.Clone()); err != nil {
		t.Fatal(err)
	}
	if f.CheckpointDue() {
		t.Fatal("checkpoint immediately due again")
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.wm"))
	if len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot, got %v", snaps)
	}
	// More appends after the checkpoint.
	for ; i < 25; i++ {
		if _, err := f.Append(mkRecord(t, live, "r", "a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rec, _ := g.Recover()
	if rec.LSN != 25 {
		t.Fatalf("recovered LSN = %d, want 25", rec.LSN)
	}
	if rec.SnapshotLSN != 20 || len(rec.Records) != 5 {
		t.Fatalf("snapshotLSN=%d records=%d, want 20/5", rec.SnapshotLSN, len(rec.Records))
	}
	if !bytes.Equal(snapshotBytes(t, rec.Store), snapshotBytes(t, live)) {
		t.Fatal("recovered store differs after checkpoint + tail")
	}
}

func TestFileBackendLSNContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	live := wm.NewStore()
	f, _ := OpenFile(dir, FileOptions{})
	f.Append(mkRecord(t, live, "r", "a", 1))
	f.Sync()
	f.Close()
	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := g.Append(mkRecord(t, live, "r", "a", 2))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Fatalf("LSN after reopen = %d, want 2", lsn)
	}
	g.Sync()
	g.Close()
}

func TestFileBackendClosedRefusesAppend(t *testing.T) {
	dir := t.TempDir()
	f, _ := OpenFile(dir, FileOptions{})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(&Record{Delta: &wm.Delta{}}); err == nil {
		t.Fatal("append after close must fail")
	}
	if err := f.Close(); err != nil {
		t.Fatal("double close must be clean")
	}
}

// TestFileBackendFailedSyncIsSticky pins fail-stop after a failed
// fsync: the live segment is swapped for a closed file for one Sync,
// then restored. A retried fsync on the restored file would succeed,
// but Linux may report a lost write only once, so success would claim
// durability for records that never reached disk. Every later Sync,
// Append and Close must keep failing.
func TestFileBackendFailedSyncIsSticky(t *testing.T) {
	f, err := OpenFile(t.TempDir(), FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live := wm.NewStore()
	if _, err := f.Append(mkRecord(t, live, "r", "a", 1)); err != nil {
		t.Fatal(err)
	}
	closed, err := os.CreateTemp(t.TempDir(), "closed")
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	orig := f.f
	f.f = closed
	if err := f.Sync(); err == nil {
		t.Fatal("Sync on a closed segment file must fail")
	}
	f.f = orig
	if err := f.Sync(); err == nil {
		t.Fatal("Sync after a failed Sync must keep failing")
	}
	if _, err := f.Append(mkRecord(t, live, "r", "a", 2)); err == nil {
		t.Fatal("Append after a failed Sync must fail")
	}
	if _, err := f.BeginCheckpoint(); err == nil {
		t.Fatal("BeginCheckpoint after a failed Sync must fail")
	}
	if err := f.Close(); err == nil {
		t.Fatal("Close after a failed Sync must report it")
	}
}

// TestFileBackendTornHeaderTruncated covers a crash at rotation: the
// final segment exists but its magic header is partial (or absent).
// Recovery must treat it like a torn tail — drop it and keep every
// record of the preceding segments — not refuse to open. A torn
// header on a NON-final segment is still mid-log corruption.
func TestFileBackendTornHeaderTruncated(t *testing.T) {
	for _, keep := range []int{0, 3} { // bytes of magic surviving
		dir := t.TempDir()
		f, err := OpenFile(dir, FileOptions{SegmentBytes: 1, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		live := wm.NewStore()
		// SegmentBytes 1 rotates after every record: seg1 gets the
		// record, seg2 is the freshly-created live segment.
		if _, err := f.Append(mkRecord(t, live, "r", "a", 0)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, segName(2))
		if err := os.Truncate(seg, int64(keep)); err != nil {
			t.Fatal(err)
		}
		g, err := OpenFile(dir, FileOptions{})
		if err != nil {
			t.Fatalf("keep=%d: torn final-segment header must recover: %v", keep, err)
		}
		rec, _ := g.Recover()
		if rec.LSN != 1 || len(rec.Records) != 1 {
			t.Fatalf("keep=%d: LSN=%d records=%d, want 1/1", keep, rec.LSN, len(rec.Records))
		}
		g.Close()
	}

	// Same tear on a non-final segment must refuse to open.
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{SegmentBytes: 1, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := wm.NewStore()
	for i := 0; i < 2; i++ {
		if _, err := f.Append(mkRecord(t, live, "r", "a", i)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if err := os.Truncate(filepath.Join(dir, segName(1)), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir, FileOptions{}); err == nil {
		t.Fatal("torn header on a non-final segment must refuse to open")
	}
}

// segmentBytes encodes n records as a complete segment stream and
// returns it with the offset where each framed record starts.
func segmentBytes(t *testing.T, n int) ([]byte, []int) {
	t.Helper()
	live := wm.NewStore()
	b := []byte(segMagic)
	var starts []int
	for i := 0; i < n; i++ {
		starts = append(starts, len(b))
		b = appendFrame(b, EncodeRecord(nil, mkRecord(t, live, "r", "a", i)))
	}
	return b, starts
}

// TestReadSegment pins the segment reader's torn-tail policy: a record
// cut short, a checksum failure or an undecodable record at the end of
// the stream (optionally followed by zero bytes) ends the valid prefix
// silently; the same defects followed by real data, or a bad magic,
// are errors.
func TestReadSegment(t *testing.T) {
	seg, starts := segmentBytes(t, 3)
	last := starts[2]
	with := func(edit func([]byte) []byte) []byte {
		return edit(append([]byte(nil), seg...))
	}
	zeros := make([]byte, 40)
	cases := []struct {
		name    string
		data    []byte
		records int
		valid   int
		wantErr bool
	}{
		{"clean", seg, 3, len(seg), false},
		{"torn header", []byte(segMagic[:3]), 0, 0, false},
		{"bad magic", with(func(b []byte) []byte { copy(b, "XXXXXXXX"); return b }), 0, 0, true},
		{"torn frame", seg[:last+5], 2, last, false},
		{"torn body", seg[:len(seg)-3], 2, last, false},
		{"checksum mismatch at tail", with(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }), 2, last, false},
		// A zero-filled block decodes as a frame with an empty body and
		// a zero CRC, which checksums cleanly: the record decoder
		// rejects it and the zeros after it make it a torn tail.
		{"zero-filled tail", append(append([]byte(nil), seg...), zeros...), 3, len(seg), false},
		{"zero frame then data", append(append(append([]byte(nil), seg...), zeros...), 1), 3, len(seg), true},
		{"absurd length at tail", with(func(b []byte) []byte { b[last] = 0xff; return b[:last+12] }), 2, last, false},
		{"mid-log corruption", with(func(b []byte) []byte { b[starts[0]+12+4] ^= 0xff; return b }), 0, starts[0], true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, valid, err := ReadSegment(bytes.NewReader(tc.data))
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if len(recs) != tc.records || valid != int64(tc.valid) {
				t.Fatalf("records=%d valid=%d, want %d/%d", len(recs), valid, tc.records, tc.valid)
			}
		})
	}
}

// TestDecodeRecordCraftedLength is the network-facing half of the wm
// crafted-length regression: replication followers decode shipped
// record bytes with DecodeRecord, so a WME class length of 2^64-1 in
// the embedded delta must come back as an error, not a panic.
func TestDecodeRecordCraftedLength(t *testing.T) {
	r := mkRecord(t, wm.NewStore(), "r", "a", 1)
	body := EncodeRecord(nil, r)
	// The delta ends the record; its class length sits after the remove
	// count, add count, ID and time tag.
	classLen := len(body) - len(wm.EncodeDelta(nil, r.Delta)) + 32
	binary.BigEndian.PutUint64(body[classLen:], math.MaxUint64)
	if _, err := DecodeRecord(body); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}
