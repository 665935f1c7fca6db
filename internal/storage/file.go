package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pdps/internal/wm"
)

// File is the segmented log-structured backend. A data directory
// holds numbered segment files (`wal-%08d.log`) and at most one live
// snapshot (`snapshot-<seq>-<lsn>.wm`, where seq is the first segment
// NOT folded into it and lsn the last record it covers). Appends go
// to the highest segment through a buffered writer; Sync flushes and
// fsyncs it, covering every record appended since the last Sync.
// Segments rotate at SegmentBytes, and once CheckpointBytes
// of log accumulate a checkpoint is due: the log is sealed at a
// segment boundary, the store is snapshotted (temp file, fsync,
// rename, directory fsync), and covered segments and stale snapshots
// are pruned.
//
// A failed flush, fsync, seal or background checkpoint poisons the
// backend: every later Append, Sync, BeginCheckpoint and Close returns
// that first error. A second fsync of the same file proves nothing —
// Linux may report a lost write only once, and the retry can succeed
// for data that never reached disk — so the backend never retries one.
//
// Recovery (performed once, at open) loads the newest snapshot,
// replays every surviving segment in order, truncates a torn tail on
// the final segment (mid-log corruption is an error), and starts a
// fresh live segment. Opening never loses acknowledged records: a
// record is acknowledged only after Sync, and Sync returns only after
// the bytes are in the segment file.
type File struct {
	dir  string
	opts FileOptions

	mu       sync.Mutex
	f        *os.File // live segment
	bw       *bufio.Writer
	seg      uint64 // live segment sequence number
	segBytes int64  // bytes written to live segment
	logBytes int64  // bytes in segments since last checkpoint
	lsn      uint64 // last assigned LSN
	buf      []byte // record body scratch
	frame    []byte // framed record scratch
	rec      *Recovery
	cpBusy   bool
	err      error // sticky: the first failed flush, fsync, seal or checkpoint
	cpWG     sync.WaitGroup
	closed   bool
}

// FileOptions tunes the file backend; zero values pick defaults.
type FileOptions struct {
	// SegmentBytes rotates the live segment once it reaches this size.
	// Zero means 4 MiB.
	SegmentBytes int64
	// CheckpointBytes arms an automatic checkpoint once this much log
	// has accumulated since the last one. Zero means 8 MiB; negative
	// disables automatic checkpoints (explicit Checkpoint still works).
	CheckpointBytes int64
}

const (
	segMagic    = "PDPSSEG1"
	segPrefix   = "wal-"
	segSuffix   = ".log"
	snapPrefix  = "snapshot-"
	snapSuffix  = ".wm"
	defaultSeg  = 4 << 20
	defaultCkpt = 8 << 20
	segNameFmt  = segPrefix + "%08d" + segSuffix
	snapNameFmt = snapPrefix + "%08d-%016d" + snapSuffix
	snapScanFmt = snapPrefix + "%d-%d" + snapSuffix
)

// OpenFile opens (or initialises) a file backend in dir, performing
// crash recovery. The recovered state is available from Recover.
func OpenFile(dir string, opts FileOptions) (*File, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSeg
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = defaultCkpt
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open: %w", err)
	}
	s := &File{dir: dir, opts: opts}
	if err := s.recoverDir(); err != nil {
		return nil, err
	}
	return s, nil
}

// recoverDir scans the directory, loads the newest snapshot, replays
// surviving segments, prunes leftovers from interrupted checkpoints,
// and opens a fresh live segment.
func (s *File) recoverDir() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("storage: open: %w", err)
	}
	var segs []uint64
	type snapInfo struct {
		seq, lsn uint64
		name     string
	}
	var snaps []snapInfo
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Leftover from an interrupted snapshot write.
			os.Remove(filepath.Join(s.dir, name))
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			var seq uint64
			if _, err := fmt.Sscanf(name, segNameFmt, &seq); err == nil {
				segs = append(segs, seq)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			var si snapInfo
			if _, err := fmt.Sscanf(name, snapScanFmt, &si.seq, &si.lsn); err == nil {
				si.name = name
				snaps = append(snaps, si)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].seq != snaps[j].seq {
			return snaps[i].seq < snaps[j].seq
		}
		return snaps[i].lsn < snaps[j].lsn
	})

	store := wm.NewStore()
	var snapSeq, baseLSN uint64 = 1, 0
	if len(snaps) > 0 {
		best := snaps[len(snaps)-1]
		f, err := os.Open(filepath.Join(s.dir, best.name))
		if err != nil {
			return fmt.Errorf("storage: open snapshot: %w", err)
		}
		store, err = wm.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("storage: snapshot %s: %w", best.name, err)
		}
		snapSeq, baseLSN = best.seq, best.lsn
		// Stale snapshots and covered segments survive a crash between
		// rename and prune; finish the prune now.
		for _, old := range snaps[:len(snaps)-1] {
			os.Remove(filepath.Join(s.dir, old.name))
		}
	}
	live := segs[:0]
	for _, seq := range segs {
		if seq < snapSeq {
			os.Remove(filepath.Join(s.dir, segName(seq)))
			continue
		}
		live = append(live, seq)
	}
	for i := 1; i < len(live); i++ {
		if live[i] != live[i-1]+1 {
			return fmt.Errorf("storage: missing segment %d (have %d then %d)", live[i-1]+1, live[i-1], live[i])
		}
	}
	if len(live) > 0 && live[0] != snapSeq {
		return fmt.Errorf("storage: missing segment %d after snapshot (first surviving segment is %d)", snapSeq, live[0])
	}

	rec := &Recovery{Store: store, SnapshotLSN: LSN(baseLSN)}
	lsn := baseLSN
	var logBytes int64
	for i, seq := range live {
		path := filepath.Join(s.dir, segName(seq))
		recs, valid, size, err := readSegmentFile(path)
		if err != nil {
			return fmt.Errorf("storage: segment %d: %w", seq, err)
		}
		if valid < size {
			if i != len(live)-1 {
				return fmt.Errorf("storage: segment %d: torn record before end of log", seq)
			}
			// Drop the torn tail so it can never be misread as
			// mid-log corruption once a new segment follows it.
			if err := os.Truncate(path, valid); err != nil {
				return fmt.Errorf("storage: segment %d: truncate torn tail: %w", seq, err)
			}
			if err := syncFile(path); err != nil {
				return fmt.Errorf("storage: segment %d: %w", seq, err)
			}
		}
		for j, r := range recs {
			if err := store.ApplyLogged(r.Delta); err != nil {
				return fmt.Errorf("storage: segment %d record %d: %w", seq, j, err)
			}
			lsn++
		}
		rec.Records = append(rec.Records, recs...)
		logBytes += valid
	}
	rec.LSN = LSN(lsn)
	s.rec = rec
	s.lsn = lsn
	s.logBytes = logBytes

	s.seg = snapSeq
	if len(live) > 0 {
		s.seg = live[len(live)-1] + 1
	}
	return s.newSegLocked()
}

// newSegLocked creates the live segment file s.seg and makes its
// existence durable.
func (s *File) newSegLocked() error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: new segment: %w", err)
	}
	bw := bufio.NewWriter(f)
	if _, err := bw.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("storage: new segment: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("storage: new segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: new segment: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("storage: new segment: %w", err)
	}
	s.f = f
	bw.Reset(f)
	s.bw = bw
	s.segBytes = int64(len(segMagic))
	s.logBytes += int64(len(segMagic))
	return nil
}

func segName(seq uint64) string { return fmt.Sprintf(segNameFmt, seq) }

// Append encodes and stages one record on the live segment, rotating
// it when full. The record is durable only after the next Sync.
func (s *File) Append(r *Record) (LSN, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if s.closed {
		return 0, errors.New("storage: append on closed backend")
	}
	body := EncodeRecord(s.buf[:0], r)
	s.buf = body[:0]
	s.frame = appendFrame(s.frame[:0], body)
	if _, err := s.bw.Write(s.frame); err != nil {
		return 0, s.fail(fmt.Errorf("storage: append: %w", err))
	}
	n := int64(len(s.frame))
	s.segBytes += n
	s.logBytes += n
	s.lsn++
	lsn := LSN(s.lsn)
	if s.segBytes >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// rotateLocked seals the live segment (flush, fsync, close) and opens
// the next one.
func (s *File) rotateLocked() error {
	if err := s.sealLocked(); err != nil {
		return s.fail(err)
	}
	s.seg++
	if err := s.newSegLocked(); err != nil {
		return s.fail(err)
	}
	return nil
}

// fail records err as the backend's sticky error, unless an earlier
// failure already is, and returns err. Caller holds s.mu.
func (s *File) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return err
}

// sealLocked flushes and fsyncs the live segment and closes it.
func (s *File) sealLocked() error {
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("storage: seal segment: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("storage: seal segment: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("storage: seal segment: %w", err)
	}
	s.f = nil
	return nil
}

// Sync flushes buffered records and fsyncs the live segment — the
// durability point. It returns the sticky error of any earlier
// failure, a background checkpoint's included.
func (s *File) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("storage: sync on closed backend")
	}
	if err := s.bw.Flush(); err != nil {
		return s.fail(fmt.Errorf("storage: sync: %w", err))
	}
	if err := s.f.Sync(); err != nil {
		return s.fail(fmt.Errorf("storage: sync: %w", err))
	}
	return nil
}

// CheckpointDue implements AutoCheckpointer: true once CheckpointBytes
// of log accumulated since the last checkpoint and none is in flight.
func (s *File) CheckpointDue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && !s.cpBusy && s.opts.CheckpointBytes > 0 &&
		s.logBytes >= s.opts.CheckpointBytes
}

// BeginCheckpoint implements AutoCheckpointer. It seals the log at a
// segment boundary on the caller's goroutine — records appended
// afterwards land in segments the snapshot will not cover — and
// returns the completion that writes the snapshot and prunes covered
// segments. The completion must be called with a store reflecting
// exactly the records up to the boundary (the engine clones its store
// immediately, before committing anything else).
func (s *File) BeginCheckpoint() (func(*wm.Store) error, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, errors.New("storage: checkpoint on closed backend")
	}
	if s.cpBusy {
		return nil, errors.New("storage: checkpoint already in flight")
	}
	logBytesAt := s.logBytes
	if err := s.rotateLocked(); err != nil {
		return nil, err
	}
	boundary := s.seg // snapshot covers segments < boundary
	lsnAt := s.lsn
	s.cpBusy = true
	s.cpWG.Add(1)
	complete := func(st *wm.Store) error {
		defer s.cpWG.Done()
		err := s.writeSnapshot(st, boundary, lsnAt)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cpBusy = false
		if err != nil {
			return s.fail(err)
		}
		s.logBytes -= logBytesAt
		return nil
	}
	return complete, nil
}

// writeSnapshot durably writes st as the snapshot covering segments
// below seq (last LSN lsn), then prunes covered segments and stale
// snapshots.
func (s *File) writeSnapshot(st *wm.Store, seq, lsn uint64) error {
	tmp, err := os.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if err := st.WriteSnapshot(tmp); err != nil {
		cleanup()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	name := fmt.Sprintf(snapNameFmt, seq, lsn)
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	// The new snapshot is durable; everything it covers can go. A
	// crash mid-prune is fine — recovery finishes the job.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("storage: checkpoint prune: %w", err)
	}
	for _, e := range entries {
		en := e.Name()
		switch {
		case strings.HasPrefix(en, segPrefix) && strings.HasSuffix(en, segSuffix):
			var sq uint64
			if _, err := fmt.Sscanf(en, segNameFmt, &sq); err == nil && sq < seq {
				os.Remove(filepath.Join(s.dir, en))
			}
		case strings.HasPrefix(en, snapPrefix) && strings.HasSuffix(en, snapSuffix) && en != name:
			os.Remove(filepath.Join(s.dir, en))
		}
	}
	return syncDir(s.dir)
}

// Checkpoint folds the store into a snapshot synchronously.
func (s *File) Checkpoint(st *wm.Store) error {
	complete, err := s.BeginCheckpoint()
	if err != nil {
		return err
	}
	return complete(st)
}

// Recover returns the state recovered when the backend was opened.
// The store is handed to the caller; the backend does not mutate it.
// To observe state appended after open, close and reopen the
// directory (what a restarted process does).
func (s *File) Recover() (*Recovery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec, nil
}

// LSN returns the last assigned log sequence number.
func (s *File) LSN() LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return LSN(s.lsn)
}

// Close seals the live segment, waits for any background checkpoint,
// and returns the sticky error, if any. A poisoned backend closes its
// live segment without sealing it: that fsync could not be trusted.
func (s *File) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		switch {
		case s.f == nil:
		case s.err != nil:
			s.f.Close()
		default:
			if err := s.sealLocked(); err != nil {
				s.fail(err)
			}
		}
	}
	s.mu.Unlock()
	s.cpWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// --- segment record codec ---

// EncodeRecord appends the canonical binary encoding of a record to b:
// rule, instantiation key, WME fingerprints, then the delta. The same
// encoding frames the File backend's segments and the replication
// stream, so a byte comparison of encoded records is a comparison of
// everything a commit durably means (DecodeRecord is the inverse).
func EncodeRecord(b []byte, r *Record) []byte {
	b = appendString(b, r.Rule)
	b = appendString(b, r.Inst)
	b = appendU64(b, uint64(len(r.WMEs)))
	for _, w := range r.WMEs {
		b = appendString(b, w)
	}
	return wm.EncodeDelta(b, r.Delta)
}

// DecodeRecord parses a segment record body produced by the file
// backend. It is exported so crash-recovery tests can replay segments
// independently of Recover.
func DecodeRecord(body []byte) (*Record, error) {
	r := &Record{}
	pos := 0
	var err error
	if r.Rule, pos, err = readString(body, pos); err != nil {
		return nil, err
	}
	if r.Inst, pos, err = readString(body, pos); err != nil {
		return nil, err
	}
	n, pos, err := readU64(body, pos)
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("storage: absurd fingerprint count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		var fp string
		if fp, pos, err = readString(body, pos); err != nil {
			return nil, err
		}
		r.WMEs = append(r.WMEs, fp)
	}
	if r.Delta, err = wm.DecodeDelta(body[pos:]); err != nil {
		return nil, err
	}
	return r, nil
}

// ReadSegment scans one segment stream, returning the decoded records
// of its valid prefix and that prefix's length in bytes. A torn tail
// simply ends the scan (callers compare valid against the file size
// to detect it); mid-log corruption is an error. The header itself
// can be torn too — a crash at rotation may leave the new segment
// with a partial (or absent) magic string — so a short header whose
// bytes are a prefix of the magic reports an empty valid prefix
// rather than an error; the recovery loop then applies the same
// final-segment-only rule it applies to torn records.
func ReadSegment(r io.Reader) (recs []*Record, valid int64, err error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(segMagic))
	n, herr := io.ReadFull(br, head)
	if herr != nil {
		if (herr == io.EOF || herr == io.ErrUnexpectedEOF) && strings.HasPrefix(segMagic, string(head[:n])) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("segment header: %w", herr)
	}
	if string(head) != segMagic {
		return nil, 0, fmt.Errorf("segment header: bad magic %q", head)
	}
	fs := &frameScanner{br: br, valid: int64(len(segMagic))}
	for {
		body, err := fs.next()
		if err == io.EOF {
			return recs, fs.valid, nil
		}
		if err != nil {
			return recs, fs.valid, fmt.Errorf("record %d: %w", fs.records, err)
		}
		rec, derr := DecodeRecord(body)
		if derr != nil {
			if rerr := fs.reject(derr); rerr == io.EOF {
				return recs, fs.valid, nil
			}
			return recs, fs.valid, fmt.Errorf("record %d: %w", fs.records, derr)
		}
		recs = append(recs, rec)
	}
}

// readSegmentFile reads a segment from disk, reporting its records,
// valid prefix, and on-disk size.
func readSegmentFile(path string) (recs []*Record, valid, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	recs, valid, err = ReadSegment(f)
	return recs, valid, fi.Size(), err
}

// syncFile fsyncs the file at path.
func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// syncDir fsyncs a directory so renames and file creations within it
// are durable. On filesystems that refuse fsync on directories the
// error is ignored (there is nothing more the caller can do).
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}

// --- little-codec helpers (byte-slice variants of wm's) ---

func appendU64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}

func appendString(b []byte, s string) []byte {
	b = appendU64(b, uint64(len(s)))
	return append(b, s...)
}

func readU64(b []byte, pos int) (uint64, int, error) {
	if pos+8 > len(b) {
		return 0, pos, io.ErrUnexpectedEOF
	}
	return binary.BigEndian.Uint64(b[pos:]), pos + 8, nil
}

func readString(b []byte, pos int) (string, int, error) {
	n, pos, err := readU64(b, pos)
	if err != nil {
		return "", pos, err
	}
	if n > 1<<24 || pos+int(n) > len(b) {
		return "", pos, io.ErrUnexpectedEOF
	}
	return string(b[pos : pos+int(n)]), pos + int(n), nil
}
