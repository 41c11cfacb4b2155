// Command bfsweep runs a resumable fault-scenario sweep farm (see
// internal/sweepfarm): one base run is warmed up and checkpointed at
// the fork cycle, then every fault rate × fault seed combination forks
// that checkpoint on a worker pool. With -journal the farm survives
// being killed at any point: completed points are fsynced to the
// journal and a rerun simulates only what is missing.
//
// Usage:
//
//	bfsweep -n 6 -lambda 0.2 -rates 0.01,0.02,0.05 -faultseeds 1,2,3
//	bfsweep -n 6 -lambda 0.2 -rates 0.02 -reliable -adaptive
//	bfsweep -n 6 -lambda 0.2 -rates 0.02 -journal sweep.bin -workers 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bfvlsi/internal/sweepfarm"
)

// options carries every flag value. Parsing and validation are pure (no
// exits, no prints): main turns a validation error into the exit-2
// usage path, and the tests drive the same code with table argv lists.
type options struct {
	grid    sweepfarm.Grid
	workers int
	journal string
}

// newOptions registers every flag on the given set.
func newOptions(set *flag.FlagSet) *options {
	o := &options{}
	o.grid.RegisterFlags(set)
	set.IntVar(&o.workers, "workers", 4, "fork worker pool size")
	set.StringVar(&o.journal, "journal", "", "completed-point journal path (empty = not resumable)")
	return o
}

// validate audits flag ranges and parses the list-valued flags.
func (o *options) validate() error {
	if err := o.grid.Validate(); err != nil {
		return err
	}
	if o.workers < 1 {
		return fmt.Errorf("-workers %d must be at least 1", o.workers)
	}
	return nil
}

// run executes the farm and writes the report table; it returns the
// process exit code.
func run(o *options, stdout, stderr io.Writer) int {
	spec := o.grid.Spec()
	rep, err := sweepfarm.Run(spec, sweepfarm.Options{
		Workers: o.workers,
		Journal: o.journal,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bfsweep:", err)
		return 1
	}
	fmt.Fprintf(stdout, "B_%d lambda=%.4f, %d points (%d from journal), fork at cycle %d\n",
		o.grid.Dim, o.grid.Lambda, len(rep.Points), rep.Resumed, spec.ForkCycle)
	if err := rep.WriteTable(stdout, spec.Points); err != nil {
		fmt.Fprintln(stderr, "bfsweep:", err)
		return 1
	}
	return 0
}

func main() {
	set := flag.NewFlagSet("bfsweep", flag.ExitOnError)
	o := newOptions(set)
	_ = set.Parse(os.Args[1:])
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bfsweep:", err)
		set.Usage()
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}
