// Package storage is the pluggable durability layer under the engine:
// an append-only log of commit records plus snapshot/checkpoint and
// crash recovery. The engine appends one record per commit; nothing is
// acknowledged until a Sync covers its record. Single and the Parallel
// committer sync every commit, the Static engine once per batch of
// non-interfering firings, and an interactive Session once per ack
// boundary: a server session syncs before each trace frame it streams,
// so one fsync covers every commit in the frame.
//
// Two implementations ship with the repo: Mem, an in-memory backend
// for tests and for measuring the engine's no-durability ceiling, and
// File, a segmented log-structured backend with snapshots, log
// truncation, and size-triggered background checkpoints.
package storage

import (
	"pdps/internal/wm"
)

// LSN is a log sequence number: the 1-based index of a record in the
// backend's logical log. LSNs are contiguous across segments and
// survive checkpoints (a snapshot records the LSN it covers).
type LSN uint64

// Record is one logical log entry: the commit delta plus enough
// firing context (rule name, instantiation key, matched-WME
// fingerprints) to reconstruct the commit trace at recovery, so the
// detsched oracle can check a recovered execution for admissibility.
// A record with an empty Rule is a bare WM delta (e.g. the initial
// working memory seeded by a loader) and is not part of the trace.
type Record struct {
	// Rule is the production fired, empty for non-firing deltas.
	Rule string
	// Inst identifies the instantiation (rule + matched WME versions).
	Inst string
	// WMEs holds content fingerprints of the matched WMEs at commit
	// time, in the order the trace checker expects.
	WMEs []string
	// Delta is the committed WM change. Removes are stubs carrying
	// only ID and TimeTag after a decode round-trip.
	Delta *wm.Delta
}

// Backend is the engine-facing storage interface. Append and Sync are
// called from the committer only (single goroutine); Checkpoint and
// Recover may be called from any goroutine between runs. An
// implementation may also provide AutoCheckpointer to let the engine
// trigger checkpoints by log size.
type Backend interface {
	// Append stages one record in the log and returns its LSN. The
	// record is not durable until the next Sync returns.
	Append(*Record) (LSN, error)
	// Sync makes every appended record durable. Nothing is acknowledged
	// — to a firing task, in a trace frame or as an ingest reply —
	// before a Sync that covers it has returned. After a failed Sync
	// the caller must not call Sync again: a second fsync can succeed
	// for data the first one lost.
	Sync() error
	// Checkpoint folds the given store into a snapshot and truncates
	// the log up to it, synchronously.
	Checkpoint(*wm.Store) error
	// Recover returns the state reconstructed from the log when the
	// backend was opened: the recovered store, the last durable LSN,
	// and the records since the snapshot (the trace tail).
	Recover() (*Recovery, error)
	// Close flushes, waits for any background checkpoint, and
	// releases resources. The backend is unusable afterwards.
	Close() error
}

// Recovery is what a backend reconstructs at open time.
type Recovery struct {
	// Store is the recovered working memory: snapshot plus replayed
	// log. The engine adopts it via Options.Restore.
	Store *wm.Store
	// LSN is the last log sequence number that survived.
	LSN LSN
	// SnapshotLSN is the LSN the recovery snapshot covers (0 when
	// recovery started from an empty store). Records holds everything
	// after it.
	SnapshotLSN LSN
	// Records are the replayed records since the snapshot, in order —
	// the tail of the commit trace for admissibility checking.
	Records []*Record
}

// AutoCheckpointer is an optional Backend extension for size-triggered
// checkpoints. The engine polls CheckpointDue after each sync; when
// due, it calls BeginCheckpoint on the committer goroutine (sealing
// the log at a clean boundary) and runs the returned completion — the
// expensive snapshot write — on a clone of the store, in the
// background for free-running engines and synchronously under a
// deterministic scheduler. A completion error is sticky in the
// backend and surfaces from the next Sync or Close.
type AutoCheckpointer interface {
	// CheckpointDue reports whether enough log has accumulated since
	// the last checkpoint (and no checkpoint is already in flight).
	CheckpointDue() bool
	// BeginCheckpoint seals the current log boundary and returns the
	// completion to run with a consistent snapshot of the store as of
	// this moment.
	BeginCheckpoint() (func(*wm.Store) error, error)
}
