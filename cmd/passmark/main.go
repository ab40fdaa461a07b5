// Command passmark regenerates the paper's Figure 6: the PassMark
// PerformanceTest app throughput on all four system configurations,
// normalized to vanilla Android. The Android app build is genuine DEX
// bytecode interpreted by the Dalvik VM; the iOS build is native code.
//
// Usage:
//
//	passmark [-group cpu|storage|memory|2d|3d] [-jobs N]
//
// Each configuration's battery is one parallel cell, sharded across up to
// N host workers (default: GOMAXPROCS); results are bit-identical for
// every N, only wall-clock time changes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/passmark"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "passmark: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected battery and writes the Fig. 6
// table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("passmark", flag.ContinueOnError)
	group := fs.String("group", "", "run only one Fig. 6 group (cpu, storage, memory, 2d, 3d)")
	jobs := fs.Int("jobs", 0, "max parallel host workers (<=0: GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tests := passmark.AllTests()
	if *group != "" {
		var filtered []passmark.Test
		for _, t := range tests {
			if t.Group == *group {
				filtered = append(filtered, t)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("unknown group %q", *group)
		}
		tests = filtered
	}

	rep, err := passmark.RunFigure6(tests, passmark.Options{Jobs: *jobs})
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, rep.Render())
	return err
}
