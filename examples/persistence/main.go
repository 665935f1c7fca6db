// Persistence: the "knowledge persistence" half of the paper's
// motivation for database production systems. A parallel run appends
// every committed firing to a durable storage backend and fsyncs it
// before the firing's worker learns it committed (an interactive
// Session, the server's engine, fsyncs instead once per Sync or Run:
// its ack boundary). The program then throws the in-memory state
// away, recovers the working memory and the commit history from the
// backend, proves the recovered store is identical and the recovered
// trace admissible — then resumes rule execution on the recovered
// state.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"pdps"
)

const rules = `
(p grow
  (cell ^gen <g> ^alive true)
  (limit ^gen > <g>)
  -->
  (modify 1 ^gen (+ <g> 1)))

(p retire
  (cell ^gen <g> ^alive true)
  (limit ^gen <g>)
  -->
  (modify 1 ^alive false))
`

func main() {
	prog, err := pdps.Parse(rules)
	if err != nil {
		log.Fatal(err)
	}
	prog.WMEs = append(prog.WMEs, pdps.InitialWME{
		Class: "limit", Attrs: map[string]pdps.Value{"gen": pdps.Int(5)},
	})
	for i := 0; i < 6; i++ {
		prog.WMEs = append(prog.WMEs, pdps.InitialWME{
			Class: "cell",
			Attrs: map[string]pdps.Value{
				"id": pdps.Int(int64(i)), "gen": pdps.Int(0), "alive": pdps.Bool(true),
			},
		})
	}

	dir, err := os.MkdirTemp("", "pdps-persistence")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// The directory is fresh, so OpenDurable seeds it with the initial
	// working memory as a non-firing record (recovery then replays onto
	// an empty base) and moves that memory from the program to base.
	backend, base, _, err := pdps.OpenDurable(dir, &prog)
	if err != nil {
		log.Fatal(err)
	}
	checkBase := base.Clone()

	// Run in parallel; every commit is acknowledged only after its
	// record reaches disk (fsync per commit).
	eng, err := pdps.NewParallelEngine(prog, pdps.SchemeRcRaWa, pdps.Options{
		Np: 4, Storage: backend, Restore: base,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	lsn := backend.LSN()
	if err := backend.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran to quiescence: %d commits, %d durable records\n", res.Firings, lsn)

	// "Crash": all we keep is the directory. Recover.
	reopened, err := pdps.OpenFileBackend(dir, pdps.FileBackendOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	rec, err := reopened.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d records (LSN %d)\n", len(rec.Records), rec.LSN)

	same := rec.Store.Len() == eng.Store().Len()
	for _, w := range eng.Store().All() {
		got, ok := rec.Store.Get(w.ID)
		if !ok || !got.EqualContent(w) {
			same = false
			break
		}
	}
	fmt.Printf("recovered state identical to live state: %v\n", same)
	if !same {
		log.Fatal("recovery mismatch")
	}

	// The records also carry the firing history; check it is an
	// admissible single-thread execution from the seeded base.
	var commits []pdps.TraceEvent
	for _, r := range rec.Records {
		if r.Rule == "" {
			continue
		}
		commits = append(commits, pdps.TraceEvent{Kind: pdps.TraceCommit, Rule: r.Rule, Inst: r.Inst, WMEs: r.WMEs})
	}
	if err := pdps.CheckTraceFrom(checkBase, prog.Rules, commits); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered trace of %d firings is admissible\n", len(commits))

	// Resume rule processing on the recovered store: the retired cells
	// stay retired and nothing regrows, so the system is quiescent.
	sess, err := pdps.NewSession(pdps.Program{Rules: prog.Rules}, pdps.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.LoadSnapshot(serialize(rec.Store)); err != nil {
		log.Fatal(err)
	}
	fired, err := sess.Run(100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed on recovered state: %d further firings (quiescent: %v)\n", fired, fired == 0)
}

func serialize(s *pdps.Store) *bytes.Reader {
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		log.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}
