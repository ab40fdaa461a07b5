// Command lmbench regenerates the paper's Figure 5: the lmbench 3.0
// microbenchmark latencies on all four system configurations (vanilla
// Android, Cider with Linux binaries, Cider with iOS binaries, iPad mini),
// normalized to vanilla Android.
//
// Usage:
//
//	lmbench [-group basic|syscall|proc|comm] [-jobs N]
//
// The battery's (configuration, test) cells are sharded across up to N
// host workers (default: GOMAXPROCS); the results are bit-identical for
// every N, only wall-clock time changes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lmbench"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "lmbench: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected battery and writes the Fig. 5
// table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lmbench", flag.ContinueOnError)
	group := fs.String("group", "", "run only one Fig. 5 group (basic, syscall, proc, comm)")
	jobs := fs.Int("jobs", 0, "max parallel host workers (<=0: GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tests := lmbench.AllTests()
	if *group != "" {
		var filtered []lmbench.Test
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

	rep, err := lmbench.RunFigure5(tests, lmbench.Options{Jobs: *jobs})
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, rep.Render())
	return err
}
