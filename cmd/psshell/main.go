// Command psshell is an interactive production-system shell: load rule
// files, assert and retract tuples, inspect the conflict set, and step
// or run the recognize-act cycle — the workflow of a database
// production system developer.
//
//	$ psshell program.ops
//	pdps> wm                      show working memory
//	pdps> cs                      show the conflict set
//	pdps> assert (part ^id 7 ^status ready)
//	pdps> step                    fire one production
//	pdps> run 100                 fire up to 100 productions
//	pdps> retract 3               remove WME with ID 3
//	pdps> rules                   list rules
//	pdps> metrics                 dump the session's metric counters
//	pdps> save snapshot.wm        snapshot working memory
//	pdps> quit
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"pdps"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("psshell: ")

	sh, err := newShell(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	sh.repl(os.Stdin, os.Stdout)
}

// shell holds the session state. It drives the engine's substrate
// directly through the public API: a program, a store-backed session
// and a per-step single-thread engine over the remaining state.
type shell struct {
	prog    pdps.Program
	session *pdps.Session
}

func newShell(args []string) (*shell, error) {
	var prog pdps.Program
	for _, path := range args {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		p, err := pdps.Parse(string(src))
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, p.Rules...)
		prog.WMEs = append(prog.WMEs, p.WMEs...)
	}
	session, err := pdps.NewSession(prog, pdps.Options{})
	if err != nil {
		return nil, err
	}
	return &shell{prog: prog, session: session}, nil
}

func (sh *shell) repl(in *os.File, out *os.File) {
	scanner := bufio.NewScanner(in)
	fmt.Fprintf(out, "pdps shell — %d rules, %d tuples. Type 'help'.\n",
		len(sh.prog.Rules), sh.session.Store().Len())
	for {
		fmt.Fprint(out, "pdps> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.exec(out, line); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
}

func (sh *shell) exec(out *os.File, line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		fmt.Fprintln(out, `commands:
  wm                 list working memory
  cs                 list the conflict set
  rules              list rule names
  plan               show each rule's compiled join order and cost
  assert (class ^a v ...)   add a tuple
  retract <id>       remove a tuple by ID
  step               fire one production (LEX selection)
  run [n]            fire up to n productions (default 1000)
  metrics [json]     dump the session's metrics (text, or JSON snapshot)
  save <file>        write a working-memory snapshot
  load <file>        replace working memory from a snapshot
  quit`)
	case "wm":
		for _, w := range sh.session.Store().All() {
			fmt.Fprintf(out, "  #%d %s\n", w.ID, w)
		}
	case "cs":
		for _, in := range sh.session.ConflictSet() {
			fmt.Fprintf(out, "  %s\n", in)
		}
	case "rules":
		for _, r := range sh.prog.Rules {
			fmt.Fprintf(out, "  %s (%d CEs, %d actions)\n", r.Name, len(r.Conditions), len(r.Actions))
		}
	case "plan":
		// Compile the program's rules into a fresh network and print
		// its join plans.
		pln := pdps.NewReteNetwork()
		for _, r := range sh.prog.Rules {
			if err := pln.AddRule(r); err != nil {
				return err
			}
		}
		for _, p := range pln.Plans() {
			fmt.Fprintf(out, "  %s\n", p)
		}
	case "assert":
		return sh.session.Assert(rest)
	case "retract":
		id, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return fmt.Errorf("retract wants a WME ID: %v", err)
		}
		return sh.session.Retract(id)
	case "step":
		fired, err := sh.session.Step()
		if err != nil {
			return err
		}
		if fired == "" {
			fmt.Fprintln(out, "quiescent: nothing to fire")
		} else {
			fmt.Fprintf(out, "fired %s\n", fired)
		}
		if sh.session.Halted() {
			fmt.Fprintln(out, "halted")
		}
	case "run":
		n := 1000
		if rest != "" {
			v, err := strconv.Atoi(rest)
			if err != nil {
				return err
			}
			n = v
		}
		fired, err := sh.session.Run(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fired %d productions\n", fired)
		if sh.session.Halted() {
			fmt.Fprintln(out, "halted")
		}
	case "metrics":
		snap := sh.session.Metrics().Snapshot()
		if rest == "json" {
			b, err := snap.MarshalIndent()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(b))
		} else {
			fmt.Fprint(out, snap.Text())
		}
	case "save":
		f, err := os.Create(rest)
		if err != nil {
			return err
		}
		defer f.Close()
		return sh.session.Store().WriteSnapshot(f)
	case "load":
		f, err := os.Open(rest)
		if err != nil {
			return err
		}
		defer f.Close()
		return sh.session.LoadSnapshot(f)
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	return nil
}
