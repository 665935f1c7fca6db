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

	// Each rule's read/write set is derived once; the matrix and the
	// greedy partition below read their interference from these.
	rw := make([]pdps.RWSet, len(prog.Rules))
	fmt.Println("read/write sets:")
	for i, r := range prog.Rules {
		rw[i] = pdps.RuleRWSet(r)
		fmt.Printf("  %-16s %s\n", r.Name, rw[i])
	}

	fmt.Println("\ninterference matrix (X = interferes):")
	fmt.Printf("  %-16s", "")
	for _, r := range prog.Rules {
		fmt.Printf(" %-4.4s", r.Name)
	}
	fmt.Println()
	for i, a := range prog.Rules {
		fmt.Printf("  %-16s", a.Name)
		for j := range prog.Rules {
			mark := "."
			if rw[i].Interferes(rw[j]) {
				mark = "X"
			}
			fmt.Printf(" %-4s", mark)
		}
		fmt.Println()
	}

	// Greedy partition into non-interfering groups — the static
	// approach's pre-execution output.
	var groups [][]int
	assigned := make([]bool, len(prog.Rules))
	for a := range prog.Rules {
		if assigned[a] {
			continue
		}
		group := []int{a}
		assigned[a] = true
	next:
		for b := range prog.Rules {
			if assigned[b] {
				continue
			}
			for _, member := range group {
				if rw[member].Interferes(rw[b]) {
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
			names[j] = prog.Rules[r].Name
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
