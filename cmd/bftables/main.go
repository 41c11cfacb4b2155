// Command bftables regenerates every experiment table and figure of the
// paper reproduction (see DESIGN.md for the experiment index E1-E20 and
// EXPERIMENTS.md for recorded paper-vs-measured results). The full-mode
// output of all twenty is committed as tables_output.txt, and a test
// holds the command to it byte for byte.
//
// Usage:
//
//	bftables [-quick] [experiment ...]
//
// With no arguments every experiment runs in order. Experiment names are
// e1..e20. -quick shrinks the slowest sweeps for smoke runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bfvlsi/internal/experiments"
)

var quick = flag.Bool("quick", false, "shrink slow sweeps for a fast smoke run")

// errNoMatch reports experiment names that select nothing.
var errNoMatch = errors.New("no experiment matched")

func main() {
	flag.Parse()
	if err := render(os.Stdout, *quick, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errNoMatch) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// render runs the experiments named in want (all of them when want is
// empty) in registry order, each under a "==== name: desc ====" header
// and followed by a blank line.
func render(w io.Writer, quick bool, want []string) error {
	selected := func(name string) bool {
		if len(want) == 0 {
			return true
		}
		for _, n := range want {
			if n == name {
				return true
			}
		}
		return false
	}
	cfg := &experiments.Config{W: w, Quick: quick}
	ran := 0
	for _, ex := range experiments.All() {
		if !selected(ex.Name) {
			continue
		}
		ran++
		fmt.Fprintf(w, "==== %s: %s ====\n", ex.Name, ex.Desc)
		if err := ex.Run(cfg); err != nil {
			return fmt.Errorf("%s failed: %v", ex.Name, err)
		}
		fmt.Fprintln(w)
	}
	if ran == 0 {
		return fmt.Errorf("%w %v (have e1..e20)", errNoMatch, want)
	}
	return nil
}
