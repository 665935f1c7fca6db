package engine

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// The kill-and-recover harness: the parent test re-executes this test
// binary as a child running TestKillChild, which drives an engine over
// the file backend and SIGKILLs itself at a randomized append or fsync
// count. The child prints "ACK <lsn>" after every successful fsync —
// the durability promise the committer gives workers, and for a
// Session the point where the server streams its commits — and the parent
// then recovers the directory and asserts that (a) every acknowledged
// commit survived, (b) the recovered store is byte-identical to an
// independent replay of the surviving snapshot + log, and (c) the
// recovered commit history is an admissible single-thread execution.

const (
	killParts  = 5
	killStages = 5
)

func killProgram() Program { return tallyProgram(killParts, killStages) }

// killBackend wraps the file backend, acknowledging each fsync on
// stdout and SIGKILLing the process at the configured append or sync
// count. Engines call Append and Sync from the committer only, so the
// counters need no locking.
type killBackend struct {
	*storage.File
	appends, syncs       int
	killAppend, killSync int
}

func (k *killBackend) Append(r *storage.Record) (storage.LSN, error) {
	lsn, err := k.File.Append(r)
	k.appends++
	if k.killAppend > 0 && k.appends >= k.killAppend {
		killSelf()
	}
	return lsn, err
}

func (k *killBackend) Sync() error {
	if err := k.File.Sync(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "ACK %d\n", k.File.LSN())
	k.syncs++
	if k.killSync > 0 && k.syncs >= k.killSync {
		killSelf()
	}
	return nil
}

func killSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable: SIGKILL is not deliverable to a handler
}

// TestKillChild is the child half of the harness; it only runs when the
// parent sets PDPS_KILL_DIR.
func TestKillChild(t *testing.T) {
	dir := os.Getenv("PDPS_KILL_DIR")
	if dir == "" {
		t.Skip("helper for TestKillAndRecover")
	}
	killAppend, _ := strconv.Atoi(os.Getenv("PDPS_KILL_APPEND"))
	killSync, _ := strconv.Atoi(os.Getenv("PDPS_KILL_SYNC"))

	// Tiny segments and an aggressive checkpoint threshold so kills land
	// around rotations and mid-checkpoint too.
	f, err := storage.OpenFile(dir, storage.FileOptions{SegmentBytes: 1 << 10, CheckpointBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	kb := &killBackend{File: f, killAppend: killAppend, killSync: killSync}

	prog := killProgram()
	base := wm.NewStore()
	var init wm.Delta
	for _, iw := range prog.WMEs {
		init.Adds = append(init.Adds, base.Insert(iw.Class, iw.Attrs))
	}
	if _, err := kb.Append(&storage.Record{Delta: &init}); err != nil {
		t.Fatal(err)
	}
	if err := kb.Sync(); err != nil {
		t.Fatal(err)
	}

	run := prog
	run.WMEs = nil
	opts := Options{Np: 4, Storage: kb, Restore: base}
	var eng interface{ Run() (Result, error) }
	switch name := os.Getenv("PDPS_KILL_ENGINE"); name {
	case "session":
		s, err := NewSession(run, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := stepInGroups(s, killGroup); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return
	case "single":
		eng, err = NewSingle(run, opts)
	case "parallel-2pl":
		eng, err = NewParallel(run, lock.Scheme2PL, opts)
	case "parallel-rcrawa":
		eng, err = NewParallel(run, lock.SchemeRcRaWa, opts)
	default:
		t.Fatalf("unknown engine %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// killGroup is how many steps the session engine stages between Syncs,
// the way a server session streams a trace batch.
const killGroup = 4

// stepInGroups drives a session to quiescence in groups of k steps,
// each followed by a Sync: the server's ack boundary, so killBackend
// prints ACK exactly where the server would stream.
func stepInGroups(s *Session, k int) error {
	for {
		for i := 0; i < k; i++ {
			name, err := s.Step()
			if err != nil {
				return err
			}
			if name == "" {
				return s.Sync()
			}
		}
		if err := s.Sync(); err != nil {
			return err
		}
	}
}

// TestKillAndRecover SIGKILLs engines mid-run at randomized points and
// verifies the storage layer's crash promises.
func TestKillAndRecover(t *testing.T) {
	if raceEnabled {
		t.Skip("child-process harness runs in the dedicated non-race CI step")
	}
	if os.Getenv("PDPS_KILL_DIR") != "" {
		t.Skip("child process")
	}
	points := 50
	if testing.Short() {
		points = 6
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// One append per firing plus the initial-WM seed record.
	maxAppends := killParts*killStages + 1

	for seed, engineName := range []string{"single", "parallel-2pl", "parallel-rcrawa", "session"} {
		engineName := engineName
		rng := rand.New(rand.NewSource(0xC0FFEE + int64(seed)))
		t.Run(engineName, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < points; i++ {
				dir := t.TempDir()
				killAppend, killSync := 0, 0
				if rng.Intn(2) == 0 {
					// +2 leaves room for runs that complete un-killed.
					killAppend = 1 + rng.Intn(maxAppends+2)
				} else {
					killSync = 1 + rng.Intn(maxAppends/2+2)
				}
				out := runKillChild(t, exe, dir, engineName, killAppend, killSync)
				maxAcked := parseAcks(t, out)
				verifyKillRecovery(t, dir, maxAcked, fmt.Sprintf("%s point %d (killAppend=%d killSync=%d)", engineName, i, killAppend, killSync))
			}
		})
	}
}

func runKillChild(t *testing.T, exe, dir, engineName string, killAppend, killSync int) []byte {
	t.Helper()
	cmd := exec.Command(exe, "-test.run=^TestKillChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"PDPS_KILL_DIR="+dir,
		"PDPS_KILL_ENGINE="+engineName,
		"PDPS_KILL_APPEND="+strconv.Itoa(killAppend),
		"PDPS_KILL_SYNC="+strconv.Itoa(killSync),
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("child failed to start: %v", err)
		}
		ws, ok := ee.Sys().(syscall.WaitStatus)
		if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			t.Fatalf("child died abnormally: %v\n%s", err, out)
		}
	} else if bytes.Contains(out, []byte("FAIL")) {
		t.Fatalf("child test failed:\n%s", out)
	}
	return out
}

func parseAcks(t *testing.T, out []byte) storage.LSN {
	t.Helper()
	var max storage.LSN
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		var lsn uint64
		if _, err := fmt.Sscanf(sc.Text(), "ACK %d", &lsn); err == nil {
			if storage.LSN(lsn) > max {
				max = storage.LSN(lsn)
			}
		}
	}
	return max
}

// verifyKillRecovery checks the three crash promises over a killed
// child's directory.
func verifyKillRecovery(t *testing.T, dir string, maxAcked storage.LSN, label string) {
	t.Helper()

	// Independent replay of the surviving files, before OpenFile gets a
	// chance to repair anything: newest complete snapshot, then every
	// later segment via the exported segment reader.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snapName string
	var snapSeq, snapLSN uint64
	var segSeqs []uint64
	for _, en := range entries {
		name := en.Name()
		var seq, lsn uint64
		if _, err := fmt.Sscanf(name, "snapshot-%d-%d.wm", &seq, &lsn); err == nil && strings.HasSuffix(name, ".wm") {
			if seq >= snapSeq {
				snapSeq, snapLSN, snapName = seq, lsn, name
			}
			continue
		}
		if _, err := fmt.Sscanf(name, "wal-%d.log", &seq); err == nil && strings.HasSuffix(name, ".log") {
			segSeqs = append(segSeqs, seq)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })

	base := wm.NewStore()
	if snapName != "" {
		fh, err := os.Open(filepath.Join(dir, snapName))
		if err != nil {
			t.Fatal(err)
		}
		base, err = wm.ReadSnapshot(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: snapshot unreadable: %v", label, err)
		}
	}
	manual := base.Clone()
	var records []*storage.Record
	for _, seq := range segSeqs {
		if seq < snapSeq {
			continue // covered by the snapshot; a crash may leave it behind
		}
		fh, err := os.Open(filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seq)))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := storage.ReadSegment(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: segment %d: %v", label, seq, err)
		}
		for _, r := range recs {
			if err := manual.ApplyLogged(r.Delta); err != nil {
				t.Fatalf("%s: independent replay: %v", label, err)
			}
			records = append(records, r)
		}
	}

	g, err := storage.OpenFile(dir, storage.FileOptions{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	rec, err := g.Recover()
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// (a) No acknowledged commit may be lost.
	if rec.LSN < maxAcked {
		t.Fatalf("%s: acked LSN %d lost — recovered only to %d", label, maxAcked, rec.LSN)
	}
	// (b) Recovery must equal the independent snapshot+log replay.
	if rec.LSN != storage.LSN(snapLSN)+storage.LSN(len(records)) {
		t.Fatalf("%s: recovered LSN %d, independent replay has %d+%d", label, rec.LSN, snapLSN, len(records))
	}
	if !bytes.Equal(storeSnapshot(t, rec.Store), storeSnapshot(t, manual)) {
		t.Fatalf("%s: recovered store differs from independent replay", label)
	}
	// (c) The surviving commit history must be admissible (Definition
	// 3.2) from the snapshot's state. Only the seed record may be
	// non-firing, and only at the head of the log.
	prog := killProgram()
	checkBase := base.Clone()
	var commits []trace.Event
	for i, r := range rec.Records {
		if r.Rule == "" {
			if i != 0 {
				t.Fatalf("%s: non-firing record at LSN offset %d", label, i)
			}
			if err := checkBase.ApplyLogged(r.Delta); err != nil {
				t.Fatal(err)
			}
			continue
		}
		commits = append(commits, trace.Event{Kind: trace.KindCommit, Rule: r.Rule, Inst: r.Inst, WMEs: r.WMEs})
	}
	if err := CheckTraceFrom(checkBase, prog.Rules, commits); err != nil {
		t.Fatalf("%s: recovered trace not admissible: %v", label, err)
	}
}
