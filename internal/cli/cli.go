// Package cli holds what the commands share on the command line: one
// flag parser, which also sets the standard logger up to report their
// errors.
package cli

import (
	"flag"
	"io"
	"log"
	"math"
	"os"
)

// ParseFlags parses the command line into flag.CommandLine for the
// command name. It first makes the standard logger print one
// "<name>: " line with no timestamp, so the command reports any later
// error with log.Fatalf the same way. A malformed or unknown flag, a
// float flag that is not finite, or a stray argument exits 1 with one
// such line, never the 2 of a run that stopped short; -h prints the
// usage and exits 0.
func ParseFlags(name string) {
	log.SetPrefix(name + ": ")
	log.SetFlags(0)
	flag.CommandLine.Init(name, flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	switch err := flag.CommandLine.Parse(os.Args[1:]); {
	case err == flag.ErrHelp:
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		os.Exit(0)
	case err != nil:
		log.Fatal(err)
	case flag.NArg() > 0:
		log.Fatalf("unexpected argument %q", flag.Arg(0))
	}
	// NaN and ±Inf parse as floats, but no float flag means anything
	// with them: refuse them before they become costs or event times.
	flag.Visit(func(f *flag.Flag) {
		if x, ok := f.Value.(flag.Getter).Get().(float64); ok && (math.IsNaN(x) || math.IsInf(x, 0)) {
			log.Fatalf("invalid value %q for flag -%s: not a finite number", f.Value, f.Name)
		}
	})
}
