// Command psanalyze performs the paper's pre-execution (static)
// analysis on a rule program: per-rule read/write sets over
// (class, attribute) columns, the pairwise interference matrix of
// Section 4.1, a greedy partition into non-interfering groups, and the
// compiled Rete network's topology (optionally as Graphviz dot).
//
// Usage:
//
//	psanalyze [-dot] program.ops
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pdps"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("psanalyze: ")
	dot := flag.Bool("dot", false, "emit the Rete network as Graphviz dot and exit")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psanalyze [-dot] program.ops")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := pdps.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}

	if *dot {
		net, err := pdps.CompileRete(prog)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(net.Dot())
		return
	}

	fmt.Printf("program: %d rules, %d initial tuples\n\n", len(prog.Rules), len(prog.WMEs))

	fmt.Println("read/write sets:")
	for _, r := range prog.Rules {
		fmt.Printf("  %-16s %s\n", r.Name, pdps.RuleRWSet(r))
	}

	fmt.Println("\ninterference matrix (X = interferes):")
	fmt.Printf("  %-16s", "")
	for _, r := range prog.Rules {
		fmt.Printf(" %-4.4s", r.Name)
	}
	fmt.Println()
	for _, a := range prog.Rules {
		fmt.Printf("  %-16s", a.Name)
		for _, b := range prog.Rules {
			mark := "."
			if pdps.Interferes(a, b) {
				mark = "X"
			}
			fmt.Printf(" %-4s", mark)
		}
		fmt.Println()
	}

	// Greedy partition into non-interfering groups — the static
	// approach's pre-execution output.
	var groups [][]*pdps.Rule
	assigned := make(map[*pdps.Rule]bool)
	for _, a := range prog.Rules {
		if assigned[a] {
			continue
		}
		group := []*pdps.Rule{a}
		assigned[a] = true
	next:
		for _, b := range prog.Rules {
			if assigned[b] {
				continue
			}
			for _, member := range group {
				if pdps.Interferes(member, b) {
					continue next
				}
			}
			group = append(group, b)
			assigned[b] = true
		}
		groups = append(groups, group)
	}
	fmt.Println("\nnon-interfering groups (greedy):")
	for i, g := range groups {
		names := make([]string, len(g))
		for j, r := range g {
			names[j] = r.Name
		}
		fmt.Printf("  group %d: %v\n", i+1, names)
	}

	net, err := pdps.CompileRete(prog)
	if err != nil {
		log.Fatal(err)
	}
	top := net.Topology()
	fmt.Printf("\nrete topology: %d alpha memories (%d shared), %d joins, %d negatives, %d beta memories, %d productions\n",
		top.AlphaMems, top.SharedAlph, top.JoinNodes, top.NegNodes, top.MemNodes, top.ProdNodes)
	fmt.Println("(re-run with -dot for the Graphviz rendering)")
}
