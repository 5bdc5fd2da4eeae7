// Package cli is the scaffolding the commands share: the flag-set
// constructor, the flag-error convention, file output, and the exit codes
// of a command's run function, which takes the arguments and the report
// writer so that tests can drive the command in process.
package cli

import (
	"errors"
	"flag"
	"io"
	"log"
	"os"
)

var (
	// ErrUsage reports a flag error that the flag set has already printed
	// together with the usage text (exit code 2).
	ErrUsage = errors.New("usage")
	// ErrGate reports a failed regression gate whose findings are already
	// printed (exit code 3).
	ErrGate = errors.New("gate failed")
)

// NewFlagSet builds a command's flag set. Tests replace it to inspect the
// flags a command registers.
var NewFlagSet = func(name string) *flag.FlagSet { return flag.NewFlagSet(name, flag.ContinueOnError) }

// Parse parses args into fs: -h returns flag.ErrHelp, any other flag
// error ErrUsage.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return ErrUsage
	}
	return err
}

// WriteFile creates path and fills it with write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Main runs a command on the process arguments and exits 0 on success or
// -h, 2 on ErrUsage, 3 on ErrGate, and 1 with the error logged otherwise.
func Main(name string, run func(args []string, stdout io.Writer) error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return
	case errors.Is(err, ErrUsage):
		os.Exit(2)
	case errors.Is(err, ErrGate):
		os.Exit(3)
	}
	log.Fatal(err)
}
